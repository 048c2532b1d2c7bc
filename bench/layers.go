package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/server"
	"lossyckpt/internal/store"
	"lossyckpt/internal/tune"
)

// perLayer names every per-layer metric with its unit. A traced run reports
// all of them on every workload; a layer the workload does not pass through
// reads 0. Times are medians per op, an op being one generation's save or
// restore, summed over its arrays and slabs.
var perLayer = []struct{ name, unit string }{
	{"wavelet.fwd_ms", "ms"}, {"wavelet.inv_ms", "ms"}, {"wavelet.fwd_mb_s", "MB/s"},
	{"quant.quantize_ms", "ms"}, {"quant.maxerr_ms", "ms"}, {"quant.choose_divisions_ms", "ms"},
	{"quant.quantized_frac", "ratio"},
	{"encode.encode_ms", "ms"}, {"encode.decode_ms", "ms"},
	{"container.format_ms", "ms"}, {"container.parse_ms", "ms"}, {"container.formatted_bytes", "bytes"},
	{"entropy.compress_ms", "ms"}, {"entropy.decompress_ms", "ms"},
	{"entropy.compress_mb_s", "MB/s"}, {"entropy.decompress_mb_s", "MB/s"},
	{"entropy.shuffle_ms", "ms"}, {"entropy.unshuffle_ms", "ms"}, {"entropy.out_bytes_per_in_byte", "ratio"},
	{"tune.decide_ms", "ms"}, {"tune.pick_is_lz4_shuffle", "bool"},
	{"guard.encode_ms", "ms"}, {"guard.decode_ms", "ms"}, {"guard.attempts_per_var", "ratio"},
	{"guard.escalations_per_var", "ratio"}, {"guard.lossless_fallback_frac", "ratio"},
	{"core.compress_ms", "ms"}, {"core.decompress_ms", "ms"}, {"core.replay_gap_pct", "%"},
	{"ckpt.stream_to_mem_ms", "ms"}, {"ckpt.restore_from_mem_ms", "ms"}, {"ckpt.payload_bytes", "bytes"},
	{"ckpt.allocs_per_save", "count"}, {"ckpt.alloc_mb_per_save", "MB"}, {"ckpt.allocs_per_restore", "count"},
	{"ckpt.delta_slabs_reused_frac", "ratio"}, {"ckpt.overlap_ms", "ms"},
	{"cas.split_ms", "ms"}, {"cas.split_mb_s", "MB/s"}, {"cas.sum_ms", "ms"}, {"cas.chunks_per_gen", "count"},
	{"store.commit_ms", "ms"}, {"store.read_ms", "ms"}, {"store.fs_write_ms", "ms"}, {"store.fs_sync_ms", "ms"},
	{"store.fs_sync_count", "count"}, {"store.fs_create_count", "count"}, {"store.fs_rename_count", "count"},
	{"store.fs_bytes_written", "bytes"}, {"store.write_amp", "ratio"}, {"store.dedup_new_chunk_frac", "ratio"},
	{"store.replicated_over_single", "ratio"}, {"store.straggler_wait_ms", "ms"},
	{"server.wire_write_ms", "ms"}, {"server.wire_read_ms", "ms"}, {"server.handler_save_ms", "ms"},
	{"server.handler_restore_ms", "ms"}, {"server.http_overhead_ms", "ms"}, {"server.refused_count", "count"},
	{"obs.overhead_pct", "%"},
	{"quality.max_rel_err_pct", "%"},
	{"e2e.save_ms_p50", "ms"}, {"e2e.restore_ms_p50", "ms"},
	{"e2e.save_ms_tail", "ms"}, {"e2e.save_tail_percentile", "%"},
	{"e2e.restore_ms_tail", "ms"}, {"e2e.restore_tail_percentile", "%"},
	{"e2e.residue_pct", "%"}, {"e2e.trace_overhead_pct", "%"},
}

// probeIters is how often each layer probe repeats; like the traced cycle
// counts it is fixed so that counts repeat exactly.
const probeIters = 3

// runTraced is the separate run that gives the per-layer numbers. On one
// set-up it drives three phases of a fixed number of cycles: plain, with
// spans recorded (the difference is the tracing overhead), and with a metrics
// registry and a journal installed (the difference is their overhead). Then
// it times the calls into each layer on the workload's own arrays and
// payloads, audits the store and writes the spans out.
func (c *config) runTraced() (*result, error) {
	res, in, err := c.begin()
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}

	t := newTracer()
	s, _, err := c.setUp(in, traceFS{t: t})
	if err != nil {
		return nil, err
	}
	n := c.w.traceCycles
	if c.cycles > 0 {
		n = c.cycles
	}
	jr, err := journal.Open(filepath.Join(c.dir, "journal-"+c.w.name+".jsonl"), journal.Options{})
	if err != nil {
		s.abandon()
		return nil, err
	}
	defer jr.Close()

	next := warmupCycles
	phase := func(pt *tracer) opTimes {
		ot := driveAll(s, pt, next, n, time.Time{}, res)
		next += n
		return ot
	}
	plain := phase(nil)
	t.on.Store(true)
	traced := phase(t)
	t.on.Store(false)
	observed := newOpTimes()
	if !c.w.daemon { // the daemon always runs with its own registry
		prevReg, prevJr := obs.SetDefault(obs.NewRegistry()), journal.SetDefault(jr)
		observed = phase(nil)
		obs.SetDefault(prevReg)
		journal.SetDefault(prevJr)
	}
	if len(plain.saveMs) == 0 || len(traced.saveMs) == 0 {
		s.abandon()
		return nil, fmt.Errorf("no successful cycle: %v", res.Errors)
	}

	t.on.Store(true)
	p := &probes{c: c, in: in, t: t, res: res, next: next}
	if ip, ok := s.(*inproc); ok {
		p.codec, p.saver, p.loader, p.live, p.back = ip.codec, ip.saver, ip.loader, ip.live, ip.back
	} else if err := p.ownManagers(); err != nil {
		s.abandon()
		return nil, err
	}
	probeErr := p.run()
	if ds, ok := s.(*daemonSession); ok {
		res.set("server.refused_count", float64(ds.refused.Load()), "count")
	}
	if err := s.finish(); err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("end-of-run audit: %w", err))
	}
	if probeErr != nil {
		return nil, probeErr
	}
	if err := t.write(filepath.Join(c.spanDir, "trace-"+c.w.name+".json")); err != nil {
		return nil, err
	}

	all := newOpTimes()
	for _, ot := range []opTimes{plain, traced, observed} {
		all.add(ot)
	}
	res.Samples, res.MaxRelErrPct = len(all.saveMs), all.quality.maxRelPct
	res.Correct = res.Failed == 0
	p.report(plain, traced, observed, all)
	return res, nil
}

// probes times the calls into each layer, on the arrays and payloads of the
// workload it is given.
type probes struct {
	c    *config
	in   *inputs
	t    *tracer
	res  *result
	next int // the cycle the application advances to next

	codec         ckpt.Codec
	saver, loader *ckpt.Manager
	live, back    []*grid.Field

	// Sums over the first replay iteration, for the ratios.
	numQuantized, numHigh, formatted, entropyOut int
	annotations                                  []guard.Annotation
	shipped                                      []*guard.Outcome // what the guard made of each live array
	tunedPick                                    string
	allocsSave, allocMBSave, allocsRestore       []float64
	reusedFrac                                   []float64
	payloads                                     [][]byte
	chunksPerGen                                 []float64
}

// ownManagers gives the daemon workload, whose managers live in another
// process, the managers the daemon builds per request: codec lz4 over one
// client's arrays.
func (p *probes) ownManagers() (err error) {
	p.codec = p.c.w.newCodec(p.in)
	p.live, p.back = p.in.newFields(true), p.in.newFields(false)
	p.saver, p.loader, err = newManagers(p.c.w, p.codec, p.in.names, p.live, p.back)
	return err
}

func (p *probes) run() error {
	for _, probe := range []func() error{p.codecStages, p.tuner, p.checkpointToMemory, p.chunker, p.storeCommit, p.daemonLayers} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// A part is one array or slab a save has to compress, with the options the
// codec would give it. raw marks the lossless codec, whose only stage is the
// entropy coder, configured by entropy, over the array's bytes. want, when
// set, is the stream the program shipped for the part.
type part struct {
	name    string
	f       *grid.Field
	opts    core.Options
	raw     bool
	entropy entropy.Params
	want    []byte
}

// partFor resolves what the workload's codec does with array v: the pipeline
// options (the tuner's cached pick applied, or the rung the guard ladder
// ended on, read from the stream it shipped) and the slab extent, or raw
// for the lossless codec. ok is false when the guard fell to whole-variable
// lossless, which has no stages to replay.
func (p *probes) partFor(v int, f *grid.Field) (pt part, chunk int, ok bool, err error) {
	pt = part{name: p.in.names[v], f: f}
	switch cd := p.codec.(type) {
	case *ckpt.Lossy:
		pt.opts, chunk = cd.Options, cd.ChunkExtent
		if cd.Tuner != nil {
			if set, cached := cd.Tuner.Cached(pt.name); cached {
				pt.opts, p.tunedPick = set.Apply(pt.opts), set.Label()
			}
		}
	case *ckpt.Guard:
		pt.opts, pt.want, ok, err = shippedRung(cd.Options, f, p.shipped[v])
		return pt, 0, ok, err
	case *ckpt.Gzip:
		pt.raw, pt.entropy = true, entropy.Params{Codec: cd.Entropy, Shuffle: cd.Shuffle, GzipLevel: cd.Level}
	default:
		return pt, 0, false, fmt.Errorf("codec %s has no stages the probes know", p.codec.Name())
	}
	return pt, chunk, true, nil
}

// advance moves the application one cycle on and lists what a save of the
// new state compresses: every array, cut into slabs on the chunked
// workloads, and under delta only the slabs the step changed. Under the guard
// it first runs the real ladder on every array, timed, so that the parts are
// the rungs the ladder ended on.
func (p *probes) advance() ([]part, error) {
	var prev []float64
	if p.c.w.delta {
		prev = append(prev, p.live[0].Data()...)
	}
	p.in.load(p.next, p.live)
	p.next++
	if g, ok := p.codec.(*ckpt.Guard); ok {
		if err := p.guardLadder(g); err != nil {
			return nil, err
		}
	}
	var parts []part
	for v, f := range p.live {
		pt, chunk, ok, err := p.partFor(v, f)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ss, err := slabs(f, chunk)
		if err != nil {
			return nil, err
		}
		off := 0
		for _, slab := range ss {
			if prev == nil || !equalFloats(prev[off:off+slab.Len()], slab.Data()) {
				pt.f = slab
				parts = append(parts, pt)
			}
			off += slab.Len()
		}
	}
	return parts, nil
}

// guardLadder runs guard.Encode and guard.Decode on every live array and
// keeps what Encode shipped.
func (p *probes) guardLadder(g *ckpt.Guard) error {
	p.shipped = p.shipped[:0]
	_, err := p.t.in("probe.guard", true, func() error {
		for v, f := range p.live {
			id := p.t.begin("guard.encode")
			out, err := guard.Encode(p.in.names[v], f, g.Options, g.Policy)
			p.t.end(id, 0)
			if err != nil {
				return err
			}
			p.shipped = append(p.shipped, out)
			id = p.t.begin("guard.decode")
			_, _, err = guard.Decode(out.Payload, f.Shape(), g.Options.Workers)
			p.t.end(id, 0)
			if err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func equalFloats(a, b []float64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func floatBytes(fs []float64) []byte {
	out := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// drifted is the error of a replayed stream or field that differs from what
// the program made of the same part: bench/replay.go has to follow the
// program again before any per-layer number can be used.
func drifted(name, from string) error {
	return fmt.Errorf("replay %s: differs from %s: the replayed stages no longer follow the program", name, from)
}

// codecStages replays one save's and one restore's codec work stage by
// stage, then through core (and, in advance, guard) as a whole, and holds
// every replayed stream and field to what the program itself made of the
// same part.
func (p *probes) codecStages() error {
	for i := 0; i < probeIters; i++ {
		parts, err := p.advance()
		if err != nil {
			return err
		}
		if i == 0 {
			for _, out := range p.shipped {
				p.annotations = append(p.annotations, out.Annotation)
			}
		}
		streams := make([][]byte, len(parts))
		formatted := make([][]byte, len(parts))
		fields := make([]*grid.Field, len(parts))
		if _, err := p.t.in("probe.replay", true, func() error {
			for k, pt := range parts {
				var info replayInfo
				if pt.raw {
					formatted[k] = floatBytes(pt.f.Data())
					id := p.t.begin("entropy.compress")
					res, err := entropy.Compress(formatted[k], pt.entropy)
					p.t.end(id, len(formatted[k]))
					if err != nil {
						return err
					}
					streams[k] = res.Compressed
					id = p.t.begin("entropy.decompress")
					back, err := entropy.Decompress(streams[k], 0)
					p.t.end(id, len(back))
					if err != nil || !bytes.Equal(back, formatted[k]) {
						return fmt.Errorf("replay %s: entropy round trip differs: %v", pt.name, err)
					}
				} else {
					if streams[k], info, err = replayCompress(p.t, pt.f, pt.opts); err != nil {
						return fmt.Errorf("replay %s: %w", pt.name, err)
					}
					formatted[k] = info.formatted
					if fields[k], err = replayDecompress(p.t, streams[k], pt.opts.Workers); err != nil {
						return fmt.Errorf("replay %s: %w", pt.name, err)
					}
				}
				if pt.want != nil && !bytes.Equal(streams[k], pt.want) {
					return drifted(pt.name, "the stream the guard shipped")
				}
				if i == 0 {
					p.numQuantized, p.numHigh = p.numQuantized+info.numQuantized, p.numHigh+info.numHigh
					p.formatted, p.entropyOut = p.formatted+len(formatted[k]), p.entropyOut+len(streams[k])
				}
			}
			return nil
		}); err != nil {
			return err
		}

		if _, err := p.t.in("probe.shuffle", true, func() error {
			for k, pt := range parts {
				if !pt.opts.Shuffle && !pt.entropy.Shuffle {
					continue
				}
				id := p.t.begin("entropy.shuffle")
				lanes := entropy.ShuffleBytes(formatted[k], container.PackedWidth())
				p.t.end(id, len(lanes))
				id = p.t.begin("entropy.unshuffle")
				entropy.UnshuffleBytes(lanes, container.PackedWidth())
				p.t.end(id, len(lanes))
			}
			return nil
		}); err != nil {
			return err
		}

		if _, err := p.t.in("probe.core", true, func() error {
			for k, pt := range parts {
				if pt.raw {
					continue
				}
				id := p.t.begin("core.compress")
				res, err := core.Compress(pt.f, pt.opts)
				p.t.end(id, 0)
				if err != nil {
					return err
				}
				id = p.t.begin("core.decompress")
				back, err := core.DecompressAnyParallel(res.Data, pt.opts.Workers)
				p.t.end(id, 0)
				if err != nil {
					return err
				}
				if !bytes.Equal(streams[k], res.Data) || !fields[k].Equal(back) {
					return drifted(pt.name, "core.Compress and its inverse")
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for k, pt := range parts {
			if !pt.raw {
				continue
			}
			enc, err := p.codec.Encode(pt.f)
			if err != nil {
				return err
			}
			if !bytes.Equal(streams[k], enc.Payload) {
				return drifted(pt.name, "the "+p.codec.Name()+" codec's payload")
			}
		}
	}
	return nil
}

// tuner times a cold decision: a fresh tuner probing its candidates on the
// array's bytes, which it cuts to its own sample size. The set-up's own
// decision is cached after warm-up, so this cost shows in setup_s, not in
// save_ms_p05.
func (p *probes) tuner() error {
	if l, ok := p.codec.(*ckpt.Lossy); !ok || l.Tuner == nil {
		return nil
	}
	for v, f := range p.live {
		sample := floatBytes(f.Data())
		for i := 0; i < probeIters; i++ {
			fresh := tune.New(tune.Config{})
			id := p.t.begin("tune.decide")
			fresh.Decide(p.in.names[v], f.Bytes(), sample)
			p.t.end(id, 0)
		}
	}
	return nil
}

// checkpointToMemory runs the manager's checkpoint into memory (streaming
// or buffered, as the workload commits) and its restore out of memory: the
// codec and framing without the store. The payloads feed the chunker and
// store probes.
func (p *probes) checkpointToMemory() error {
	var m0, m1 runtime.MemStats
	for i := 0; i < probeIters; i++ {
		p.in.load(p.next, p.live)
		p.next++
		var buf bytes.Buffer
		runtime.ReadMemStats(&m0)
		checkpoint := p.saver.Checkpoint
		if p.c.w.stream {
			checkpoint = p.saver.CheckpointStream
		}
		id := p.t.begin("ckpt.stream_to_mem")
		rep, err := checkpoint(&buf, p.next)
		p.t.end(id, buf.Len())
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		p.allocsSave = append(p.allocsSave, float64(m1.Mallocs-m0.Mallocs))
		p.allocMBSave = append(p.allocMBSave, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if slabs := rep.DeltaSlabsReused + rep.DeltaSlabsCompressed; slabs > 0 {
			p.reusedFrac = append(p.reusedFrac, float64(rep.DeltaSlabsReused)/float64(slabs))
		}

		runtime.ReadMemStats(&m0)
		id = p.t.begin("ckpt.restore_from_mem")
		_, err = p.loader.Restore(bytes.NewReader(buf.Bytes()))
		p.t.end(id, 0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		p.allocsRestore = append(p.allocsRestore, float64(m1.Mallocs-m0.Mallocs))
		p.payloads = append(p.payloads, buf.Bytes())
	}
	return nil
}

// chunker cuts and hashes the real payloads as the dedup commit does.
func (p *probes) chunker() error {
	for _, payload := range p.payloads {
		id := p.t.begin("cas.split")
		chunks, err := cas.Split(p.c.w.storeOpts.DedupChunk, payload)
		p.t.end(id, len(payload))
		if err != nil {
			return err
		}
		id = p.t.begin("cas.sum")
		for _, chunk := range chunks {
			cas.Sum(chunk)
		}
		p.t.end(id, len(payload))
		p.chunksPerGen = append(p.chunksPerGen, float64(len(chunks)))
	}
	return nil
}

// storeCommit commits the pre-encoded payloads to a fresh store with the
// workload's options, reads them back, and commits them again three ways
// with quorum two, waiting afterwards for the straggler the quorum left.
func (p *probes) storeCommit() error {
	dir, err := os.MkdirTemp(p.c.dir, "store-probe-")
	if err != nil {
		return err
	}
	opts := p.c.w.storeOpts
	opts.FS = traceFS{t: p.t}
	single, err := store.Open(filepath.Join(dir, "single"), opts)
	if err != nil {
		return err
	}
	root := filepath.Join(dir, "rep")
	rep, err := store.OpenReplicated(root, store.ReplicaDirs(root, 3), 2, opts)
	if err != nil {
		return err
	}
	defer rep.Wait()
	for i, payload := range p.payloads {
		write := func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		}
		var gen store.Generation
		if _, err := p.t.in("probe.commit", true, func() (err error) {
			gen, err = single.CommitStream(i+1, write)
			return err
		}); err != nil {
			return err
		}
		if _, err := p.t.in("probe.read", true, func() error {
			got, err := single.ReadGeneration(gen.Seq)
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("store probe: generation %d read back differs", gen.Seq)
			}
			return err
		}); err != nil {
			return err
		}
		if _, err := p.t.in("probe.commit_rep", true, func() error {
			_, err := rep.CommitStream(i+1, write)
			return err
		}); err != nil {
			return err
		}
		p.t.in("probe.straggler", false, func() error {
			rep.Wait()
			return nil
		})
	}
	return nil
}

// daemonLayers times, on the daemon workload only, the wire format and the
// daemon's handlers in process (the tenant topology of the real daemon, the
// timing filesystem under its stores), once plain and once with a registry
// and a journal, which the real daemon's flags would install.
func (p *probes) daemonLayers() error {
	if !p.c.w.daemon {
		return nil
	}
	var wire bytes.Buffer
	for i := 0; i < probeIters; i++ {
		wire.Reset()
		id := p.t.begin("server.wire_write")
		err := server.WriteFields(&wire, named(p.in.names, p.live))
		p.t.end(id, wire.Len())
		if err != nil {
			return err
		}
		id = p.t.begin("server.wire_read")
		_, err = server.ReadFields(bytes.NewReader(wire.Bytes()))
		p.t.end(id, wire.Len())
		if err != nil {
			return err
		}
	}

	for _, observed := range []bool{false, true} {
		if err := p.handlerRig(observed); err != nil {
			return err
		}
	}
	return nil
}

// handlerSaves is how many saves one handler rig serves.
const handlerSaves = warmupCycles + probeIters

// handlerRig serves handlerSaves save→restore cycles of client 0 through
// the daemon's handlers in process, the last probeIters of them timed. The
// whole rig is one op: a quorum of two returns before the third replica has
// written, so only the rig's totals (closing the server waits for the
// stragglers) divided by its saves give exact per-save filesystem counts.
func (p *probes) handlerRig(observed bool) error {
	dir, err := os.MkdirTemp(p.c.dir, "handler-")
	if err != nil {
		return err
	}
	cfg := server.Config{
		MaxInFlight: daemonMaxInFlight,
		Tenants:     daemonTenants(dir, p.c.w.storeOpts.Keep, traceFS{t: p.t}),
	}
	suffix := ""
	if observed {
		suffix = "_observed"
		jr, err := journal.Open(filepath.Join(dir, "journal.jsonl"), journal.Options{})
		if err != nil {
			return err
		}
		defer jr.Close()
		cfg.Observer, cfg.Journal = obs.NewRegistry(), jr
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	call := func(span, method, target string, body io.Reader) error {
		req := httptest.NewRequest(method, "/v1/c0/"+target, body)
		req.Header.Set("Authorization", "Bearer "+daemonToken)
		rec := httptest.NewRecorder()
		p.t.in(span+suffix, true, func() error {
			h.ServeHTTP(rec, req)
			return nil
		})
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		return nil
	}
	_, err = p.t.in("probe.handler_rig"+suffix, true, func() error {
		var wire bytes.Buffer
		for i := 0; i < handlerSaves; i++ {
			p.in.load(p.next, p.live)
			p.next++
			wire.Reset()
			if err := server.WriteFields(&wire, named(p.in.names, p.live)); err != nil {
				return err
			}
			save, restore := "warmup.save", "warmup.restore"
			if i >= warmupCycles {
				save, restore = "probe.handler_save", "probe.handler_restore"
			}
			if err := call(save, "POST", "save?codec=lz4&step="+strconv.Itoa(i+1), &wire); err != nil {
				return err
			}
			if err := call(restore, "GET", "restore", nil); err != nil {
				return err
			}
		}
		return srv.Close()
	})
	return err
}

// report turns the spans and counts into the per-layer metrics.
func (p *probes) report(plain, traced, observed, all opTimes) {
	t, res := p.t, p.res
	set := func(name string, v float64) {
		m := res.Metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, m.Unit}
	}
	// dur and cnt are the median over ops of the summed durations (ms) and
	// the counts of the spans called name under op.
	dur := func(op, name string) float64 { d, _, _ := t.opSums(op, name); return median(d) }
	cnt := func(op, name string) float64 { _, n, _ := t.opSums(op, name); return median(n) }
	rate := func(op, name string) float64 { // MB/s
		d, _, b := t.opSums(op, name)
		var r []float64
		for i := range d {
			if d[i] > 0 {
				r = append(r, b[i]/1e3/d[i])
			}
		}
		return median(r)
	}
	pct := func(v, base float64) float64 { return 100 * (v - base) / base }
	ratio := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }

	var stages float64
	for _, st := range []string{"wavelet.fwd", "quant.quantize", "quant.maxerr", "quant.choose_divisions",
		"encode.encode", "container.format", "entropy.compress"} {
		stages += dur("probe.replay", st)
	}
	for _, st := range []string{"wavelet.fwd", "wavelet.inv", "quant.quantize", "quant.maxerr", "quant.choose_divisions",
		"encode.encode", "encode.decode", "container.format", "container.parse", "entropy.compress", "entropy.decompress"} {
		set(st+"_ms", dur("probe.replay", st))
	}
	set("wavelet.fwd_mb_s", rate("probe.replay", "wavelet.fwd"))
	set("entropy.compress_mb_s", rate("probe.replay", "entropy.compress"))
	set("entropy.decompress_mb_s", rate("probe.replay", "entropy.decompress"))
	set("entropy.shuffle_ms", dur("probe.shuffle", "entropy.shuffle"))
	set("entropy.unshuffle_ms", dur("probe.shuffle", "entropy.unshuffle"))
	set("quant.quantized_frac", ratio(p.numQuantized, p.numHigh))
	set("container.formatted_bytes", float64(p.formatted))
	set("entropy.out_bytes_per_in_byte", ratio(p.entropyOut, p.formatted))

	set("core.compress_ms", dur("probe.core", "core.compress"))
	set("core.decompress_ms", dur("probe.core", "core.decompress"))
	if whole := dur("probe.core", "core.compress"); whole > 0 {
		set("core.replay_gap_pct", pct(whole, stages))
	}

	set("tune.decide_ms", median(t.durations("tune.decide")))
	if p.tunedPick == "lz4+shuffle" {
		set("tune.pick_is_lz4_shuffle", 1)
	}

	set("guard.encode_ms", dur("probe.guard", "guard.encode"))
	set("guard.decode_ms", dur("probe.guard", "guard.decode"))
	var attempts, escalations, fallbacks int
	for _, a := range p.annotations {
		attempts, escalations = attempts+a.Attempts, escalations+a.Escalations
		if a.Mode == guard.LosslessBands || a.Mode == guard.Lossless {
			fallbacks++
		}
	}
	set("guard.attempts_per_var", ratio(attempts, len(p.annotations)))
	set("guard.escalations_per_var", ratio(escalations, len(p.annotations)))
	set("guard.lossless_fallback_frac", ratio(fallbacks, len(p.annotations)))

	toMem := median(t.durations("ckpt.stream_to_mem"))
	var payloadBytes []float64
	for _, pl := range p.payloads {
		payloadBytes = append(payloadBytes, float64(len(pl)))
	}
	set("ckpt.stream_to_mem_ms", toMem)
	set("ckpt.restore_from_mem_ms", median(t.durations("ckpt.restore_from_mem")))
	set("ckpt.payload_bytes", median(payloadBytes))
	set("ckpt.allocs_per_save", median(p.allocsSave))
	set("ckpt.alloc_mb_per_save", median(p.allocMBSave))
	set("ckpt.allocs_per_restore", median(p.allocsRestore))
	set("ckpt.delta_slabs_reused_frac", median(p.reusedFrac))

	set("cas.split_ms", median(t.durations("cas.split")))
	set("cas.sum_ms", median(t.durations("cas.sum")))
	if d := median(t.durations("cas.split")); d > 0 {
		set("cas.split_mb_s", median(payloadBytes)/1e3/d)
	}
	set("cas.chunks_per_gen", median(p.chunksPerGen))

	commit := median(t.durations("probe.commit"))
	set("store.commit_ms", commit)
	set("store.read_ms", median(t.durations("probe.read")))
	if commit > 0 {
		set("store.replicated_over_single", median(t.durations("probe.commit_rep"))/commit)
	}
	set("store.straggler_wait_ms", median(t.durations("probe.straggler")))
	if chunks := median(p.chunksPerGen); chunks > 0 {
		set("store.dedup_new_chunk_frac", cnt("probe.commit", "fs.create_chunk")/chunks)
	}
	set("ckpt.overlap_ms", toMem+commit-median(plain.saveMs))

	// What the real save did to the filesystem: the median over the saves of
	// the traced phase in process, and for the daemon the totals of its
	// handler rig per save.
	fs := func(name string) (ms, count, bytes float64) {
		if p.c.w.daemon {
			d, n, b := t.opSums("probe.handler_rig", name)
			return d[0] / handlerSaves, n[0] / handlerSaves, b[0] / handlerSaves
		}
		d, n, b := t.opSums("e2e.save", name)
		return median(d), median(n), median(b)
	}
	writeMs, _, written := fs("fs.write")
	syncMs, syncs, _ := fs("fs.sync")
	renameMs, renames, _ := fs("fs.rename")
	createMs, creates, _ := fs("fs.create")
	chunkMs, chunkCreates, _ := fs("fs.create_chunk")
	fsMs := writeMs + syncMs + renameMs + createMs + chunkMs
	set("store.fs_write_ms", writeMs)
	set("store.fs_sync_ms", syncMs)
	set("store.fs_sync_count", syncs)
	set("store.fs_create_count", creates+chunkCreates)
	set("store.fs_rename_count", renames)
	set("store.fs_bytes_written", written)
	if pb := median(payloadBytes); pb > 0 {
		set("store.write_amp", written/pb)
	}

	save := median(plain.saveMs)
	set("server.wire_write_ms", median(t.durations("server.wire_write")))
	set("server.wire_read_ms", median(t.durations("server.wire_read")))
	handlerSave := median(t.durations("probe.handler_save"))
	set("server.handler_save_ms", handlerSave)
	set("server.handler_restore_ms", median(t.durations("probe.handler_restore")))
	if p.c.w.daemon {
		set("server.http_overhead_ms", save-handlerSave)
		set("obs.overhead_pct", pct(median(t.durations("probe.handler_save_observed")), handlerSave))
	} else {
		set("obs.overhead_pct", pct(median(observed.saveMs), save))
	}

	set("quality.max_rel_err_pct", all.quality.maxRelPct)
	set("e2e.save_ms_p50", save)
	set("e2e.restore_ms_p50", median(plain.restoreMs))
	tp, tv := tail(all.saveMs)
	set("e2e.save_tail_percentile", tp)
	set("e2e.save_ms_tail", tv)
	tp, tv = tail(all.restoreMs)
	set("e2e.restore_tail_percentile", tp)
	set("e2e.restore_ms_tail", tv)
	set("e2e.trace_overhead_pct", pct(median(traced.saveMs), save))
	// The save's wall time that no layer's time accounts for: not the codec
	// and framing replayed into memory, not the filesystem time seen inside
	// the save, not the chunker and hashes of a dedup commit, not the wire
	// format of the daemon. Negative when streaming hid more of one layer
	// behind another than the rest cost.
	covered := toMem + fsMs
	if p.c.w.storeOpts.Dedup {
		covered += median(t.durations("cas.split")) + median(t.durations("cas.sum"))
	}
	if p.c.w.daemon {
		covered += median(t.durations("server.wire_write")) + median(t.durations("server.wire_read"))
	}
	set("e2e.residue_pct", 100*(save-covered)/save)
}
