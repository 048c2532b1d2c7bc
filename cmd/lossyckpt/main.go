// Command lossyckpt is the command-line front end of the lossy checkpoint
// compressor: it generates demo fields, compresses and decompresses field
// files, and inspects compressed archives.
//
// Field files use the grid package's serialization (extension .grd by
// convention); compressed archives are the paper's formatted output after
// gzip (extension .lkc).
//
// Usage:
//
//	lossyckpt gen -out temp.grd [-shape 1156x82x2] [-steps 720] [-var temperature]
//	lossyckpt compress -in temp.grd -out temp.lkc [-method proposed] [-n 128] [-d 64] [-levels 1] [-scheme haar] [-chunk 0] [-workers 0] [-codec gzip] [-shuffle] [-autotune]
//	lossyckpt decompress -in temp.lkc -out restored.grd [-workers 0]
//	lossyckpt inspect -in temp.lkc
//	lossyckpt diff -a temp.grd -b restored.grd
//	lossyckpt save -dir ckpts -in a.grd[,b.grd...] [-keep 3] [-codec lossy] [-shuffle] [-autotune] [-step 0] [-workers 0] [-bound 0] [-rel-bound 0] [-psnr 0] [-guard-mode analytic] [-replicas 1] [-quorum 0] [-backend posix]
//	lossyckpt restore -dir ckpts -out outdir [-workers 0] [-replicas 1] [-quorum 0] [-backend posix]
//	lossyckpt fsck -dir ckpts [-decode] [-workers 0] [-replicas 1] [-quorum 0] [-backend posix]
//
// save and restore use the crash-safe generation store of package store:
// save commits one checkpoint atomically (temp file → fsync → rename →
// manifest update) into a retention ring of -keep generations; restore
// recovers from the newest verifiable generation, falling back
// generation-by-generation — and to frame-level partial recovery — on
// corruption. All file outputs of every subcommand are written
// atomically, so an interrupted run never leaves truncated files.
//
// The compress, decompress, save and restore subcommands additionally
// accept observability flags: -metrics addr serves /metrics (Prometheus
// text format), /metrics.json, /summary and /debug/pprof for the
// duration of the run; -obs-out file persists the final metrics
// snapshot as JSON; -obs-summary prints an end-of-run metric table;
// -metrics-hold keeps the listener up after the work finishes so short
// runs can be scraped. save -quality adds per-variable reconstruction
// quality gauges (PSNR, max relative/absolute error) for lossy codecs.
//
// save -bound/-rel-bound/-psnr switch the codec to the quality guard: the
// declared bound is enforced on every array (violations degrade down an
// escalation ladder, ultimately to bit-exact gzip) and each entry is
// annotated with the guarantee it ships with, which restore and fsck
// report back. -guard-mode picks analytic (bound from quantization
// tables; cheap, conservative) or decode (re-expand and measure;
// paranoid) verification.
//
// The entropy stage is pluggable: compress -codec picks the entropy
// codec (gzip, or the pure-Go lz4 coder), -shuffle inserts the
// byte-shuffle pre-pass, and -autotune lets the online tuner of package
// tune probe a sample and pick codec and block size itself. save accepts
// the same -shuffle/-autotune switches (the tuner attaches to the lossy
// and guard codecs); its -codec, like client save's, names a checkpoint
// codec, one of: none, gzip, lz4, fpc, lossy, guard. inspect and fsck report
// each payload's entropy framing, sniffed from the self-describing envelope.
//
// fsck audits a store in place: every retained generation is re-read and
// re-verified (size, CRC, stream framing, guard envelopes; -decode adds
// a full decode of every entry) and corrupt generations are moved to
// quarantine/ — never deleted — with the manifest rebuilt if the newest
// generation was the casualty. Exits non-zero when anything was
// quarantined, missing or divergent.
//
// save, restore and fsck share the store-topology flags: -backend picks
// the commit protocol (posix rename, or object-store-style pointer swap
// with no rename), and -replicas N spreads the store over N
// subdirectories r0..r{N-1} with quorum semantics — save commits to at
// least W replicas (-quorum, default majority), restore reads the newest
// quorum-agreed generation with per-replica fallback and inline
// read-repair of corrupt or missing copies, and fsck additionally heals
// lagging replicas and reports residual divergence. -replicas 1 (the
// default) keeps the original single-directory layout byte-identical.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/store"
	"lossyckpt/internal/tune"
	"lossyckpt/internal/wavelet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lossyckpt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lossyckpt <gen|compress|decompress|inspect|diff|save|restore|fsck|report|client> [flags]")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "compress":
		return cmdCompress(args[1:])
	case "decompress":
		return cmdDecompress(args[1:])
	case "inspect":
		return cmdInspect(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "save":
		return cmdSave(args[1:])
	case "restore":
		return cmdRestore(args[1:])
	case "fsck":
		return cmdFsck(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "client":
		return cmdClient(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func parseShape(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	shape := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid shape %q", s)
		}
		shape = append(shape, v)
	}
	return shape, nil
}

func readField(path string) (*grid.Field, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return grid.ReadField(f)
}

// writeField serializes a field and writes it atomically (temp + fsync
// + rename), so an interrupted run never leaves a truncated .grd file.
func writeField(path string, fld *grid.Field) error {
	var buf bytes.Buffer
	if _, err := fld.WriteTo(&buf); err != nil {
		return err
	}
	return store.WriteFileAtomicOS(path, buf.Bytes())
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "", "output .grd file (required)")
	shapeStr := fs.String("shape", "1156x82x2", "grid shape, e.g. 1156x82x2 (3D only)")
	steps := fs.Int("steps", 720, "climate warm-up steps before the snapshot")
	varName := fs.String("var", "temperature", "which field to export (pressure, temperature, wind_u, wind_v, wind_w)")
	seed := fs.Int64("seed", 2015, "initial-condition seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	shape, err := parseShape(*shapeStr)
	if err != nil {
		return err
	}
	if len(shape) != 3 {
		return fmt.Errorf("gen: the climate generator needs a 3D shape, got %v", shape)
	}
	cfg := climate.DefaultConfig()
	cfg.Nx, cfg.Nz, cfg.Nc = shape[0], shape[1], shape[2]
	cfg.Seed = *seed
	m, err := climate.New(cfg)
	if err != nil {
		return err
	}
	if m.Field(*varName) == nil {
		return fmt.Errorf("gen: unknown variable %q", *varName)
	}
	m.StepN(*steps)
	fld := m.Field(*varName)
	if err := writeField(*out, fld); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s after %d steps\n", *out, fld, *steps)
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ContinueOnError)
	in := fs.String("in", "", "input .grd file (required)")
	out := fs.String("out", "", "output .lkc file (required)")
	methodStr := fs.String("method", "proposed", "quantization method: simple or proposed")
	n := fs.Int("n", 128, "division number (1..255)")
	d := fs.Int("d", quant.DefaultSpikeDivisions, "spike-detection divisions")
	levels := fs.Int("levels", 1, "wavelet decomposition levels")
	schemeStr := fs.String("scheme", "haar", "wavelet scheme: haar or cdf53")
	tempFile := fs.Bool("tempfile", false, "emulate the paper prototype's temp-file gzip path")
	chunk := fs.Int("chunk", 0, "compress in slabs of this many leading-axis planes (0 = whole array)")
	workers := fs.Int("workers", 0, "parallel compression workers (0 = GOMAXPROCS, 1 = serial)")
	gzipBlock := fs.Int("gzip-block", 0, "block-parallel DEFLATE block size in bytes (0 = serial gzip stage; incompatible with -tempfile)")
	codecStr := fs.String("codec", "gzip", "entropy codec: gzip or lz4")
	shuffle := fs.Bool("shuffle", false, "whole-stream byte-shuffle pre-pass before the entropy codec (predates the container's byte lanes; rarely useful now)")
	autotune := fs.Bool("autotune", false, "let the online autotuner pick codec and block size (overrides -codec, -shuffle and -gzip-block)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("compress: -in and -out are required")
	}
	finishObs, err := startObs(of)
	if err != nil {
		return err
	}
	defer finishObs()
	method, err := quant.ParseMethod(*methodStr)
	if err != nil {
		return err
	}
	scheme, err := wavelet.ParseScheme(*schemeStr)
	if err != nil {
		return err
	}
	fld, err := readField(*in)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Method = method
	opts.Divisions = *n
	opts.SpikeDivisions = *d
	opts.Levels = *levels
	opts.Scheme = scheme
	opts.Workers = *workers
	opts.GzipBlock = *gzipBlock
	if *tempFile {
		opts.GzipMode = gzipio.TempFile
	}
	eid, err := entropy.ParseID(*codecStr)
	if err != nil {
		return err
	}
	opts.EntropyCodec = eid
	opts.Shuffle = *shuffle
	opts.VarName = varNameFromPath(*in)
	if *autotune {
		setting := tune.New(tune.Config{}).Decide(opts.VarName, fld.Bytes(), tune.Sample(fld.Data()))
		opts = setting.Apply(opts)
		fmt.Printf("autotune: selected %s\n", setting.Label())
	}
	if *chunk > 0 {
		res, err := core.CompressChunked(fld, opts, *chunk)
		if err != nil {
			return err
		}
		if err := store.WriteFileAtomicOS(*out, res.Data); err != nil {
			return err
		}
		fmt.Printf("%s -> %s: %d -> %d bytes (cr %.2f%%), %d chunks on %d workers\n",
			*in, *out, res.RawBytes, len(res.Data), res.CompressionRatePct(), res.Chunks, res.Workers)
		fmt.Printf("wall %v, cpu %v (speedup %.2fx)\n",
			res.Timings.Total, res.Timings.CPUTotal,
			float64(res.Timings.CPUTotal)/float64(res.Timings.Total))
		return nil
	}
	res, err := core.Compress(fld, opts)
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomicOS(*out, res.Data); err != nil {
		return err
	}
	fmt.Printf("%s -> %s: %d -> %d bytes (cr %.2f%%)\n",
		*in, *out, res.RawBytes, res.CompressedBytes, res.CompressionRatePct())
	fmt.Printf("phases: wavelet %v, quantize %v, encode %v, format %v, temp-write %v, gzip %v\n",
		res.Timings.Wavelet, res.Timings.Quantize, res.Timings.Encode,
		res.Timings.Format, res.Timings.TempWrite, res.Timings.Gzip)
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ContinueOnError)
	in := fs.String("in", "", "input .lkc file (required)")
	out := fs.String("out", "", "output .grd file (required)")
	workers := fs.Int("workers", 0, "parallel decompression workers (0 = GOMAXPROCS, 1 = serial)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -in and -out are required")
	}
	finishObs, err := startObs(of)
	if err != nil {
		return err
	}
	defer finishObs()
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	fld, err := core.DecompressAnyParallel(data, *workers)
	if err != nil {
		return err
	}
	if err := writeField(*out, fld); err != nil {
		return err
	}
	fmt.Printf("%s -> %s: %s\n", *in, *out, fld)
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	in := fs.String("in", "", "input .lkc file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	formatted, err := entropy.Decompress(data, 0)
	if err != nil {
		return err
	}
	arch, err := container.FromBytes(formatted)
	if err != nil {
		return err
	}
	fmt.Printf("file: %s\n", *in)
	fmt.Printf("  compressed size:  %d bytes\n", len(data))
	fmt.Printf("  entropy codec:    %s\n", core.IdentifyEntropy(data))
	fmt.Printf("  formatted size:   %d bytes\n", len(formatted))
	fmt.Printf("  shape:            %v\n", arch.Shape)
	fmt.Printf("  wavelet scheme:   %s (levels=%d)\n", arch.Params.Scheme, arch.Params.Levels)
	mode := "pooled"
	if arch.Params.PerBand {
		mode = "per-band"
	}
	fmt.Printf("  quantization:     %s (n=%d, d=%d, %s)\n", arch.Params.Method, arch.Params.Divisions, arch.Params.SpikeDivisions, mode)
	fmt.Printf("  low band:         %d values\n", len(arch.Low))
	highN := 0
	for bi, b := range arch.Bands {
		fmt.Printf("  high band %d:      %d values (%d quantized, %d passthrough)\n",
			bi, b.N, len(b.Codes), len(b.Passthrough))
		highN += b.N
	}
	raw := 8 * (len(arch.Low) + highN)
	fmt.Printf("  compression rate: %.2f%%\n", stats.CompressionRate(len(data), raw))
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	a := fs.String("a", "", "first .grd file (required)")
	b := fs.String("b", "", "second .grd file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return fmt.Errorf("diff: -a and -b are required")
	}
	fa, err := readField(*a)
	if err != nil {
		return err
	}
	fb, err := readField(*b)
	if err != nil {
		return err
	}
	if !fa.SameShape(fb) {
		return fmt.Errorf("shape mismatch: %v vs %v", fa.Shape(), fb.Shape())
	}
	s, err := stats.Compare(fa.Data(), fb.Data())
	if err != nil {
		return err
	}
	maxAbs, err := stats.MaxAbsError(fa.Data(), fb.Data())
	if err != nil {
		return err
	}
	psnr, err := stats.PSNR(fa.Data(), fb.Data())
	if err != nil {
		return err
	}
	maxRel, err := stats.MaxRelError(fa.Data(), fb.Data())
	if err != nil {
		return err
	}
	fmt.Printf("relative error (Eq. 6 of the paper): %s\n", s)
	fmt.Printf("max relative error: %.6g%%\n", 100*maxRel)
	fmt.Printf("max absolute error: %.6g\n", maxAbs)
	fmt.Printf("psnr: %.2f dB\n", psnr)
	return nil
}

// varNameFromPath derives the checkpoint variable name from a field
// file path: base name without the extension.
func varNameFromPath(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// storeFlags carries the store-topology flags shared by save, restore
// and fsck: backend selection and N-way replication.
type storeFlags struct {
	replicas *int
	quorum   *int
	backend  *string
}

func addStoreFlags(fs *flag.FlagSet) storeFlags {
	return storeFlags{
		replicas: fs.Int("replicas", 1, "replicate the store across N subdirectories r0..r{N-1} with quorum commit/read"),
		quorum:   fs.Int("quorum", 0, "write quorum W for -replicas N (0 = majority)"),
		backend:  fs.String("backend", "posix", "store backend: posix (rename commit) or object (pointer-swap commit)"),
	}
}

// open opens the store topology the flags describe under dir: a plain
// single-root store for -replicas 1 (byte-identical to the pre-replication
// layout), an N-way replicated store otherwise.
func (sf storeFlags) open(dir string, opts store.Options) (store.Target, error) {
	bk, err := store.ParseBackend(*sf.backend)
	if err != nil {
		return nil, err
	}
	opts.Backend = bk
	return store.OpenTarget(dir, *sf.replicas, *sf.quorum, opts)
}

func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ContinueOnError)
	dir := fs.String("dir", "", "checkpoint store directory (required)")
	in := fs.String("in", "", "comma-separated .grd files to checkpoint (required)")
	keep := fs.Int("keep", 3, "generations to retain")
	dedup := fs.Bool("dedup", false, "content-addressed chunk dedup: unchanged slabs across generations are stored once")
	codecName := fs.String("codec", "lossy", "checkpoint codec: "+ckpt.CodecNames)
	step := fs.Int("step", 0, "application step recorded in the checkpoint")
	workers := fs.Int("workers", 0, "parallel compression workers (0 = GOMAXPROCS, 1 = serial)")
	shuffle := fs.Bool("shuffle", false, "whole-stream byte-shuffle pre-pass for the entropy stage (gzip codec on raw arrays; on lossy and guard it predates the container's byte lanes)")
	autotune := fs.Bool("autotune", false, "attach the online entropy autotuner (lossy and guard codecs)")
	quality := fs.Bool("quality", false, "record per-variable reconstruction-quality gauges (lossy codecs; costs a decode per array)")
	bound := fs.Float64("bound", 0, "enforce this max absolute reconstruction error (switches to the guard codec)")
	relBound := fs.Float64("rel-bound", 0, "enforce this max relative (range-normalized) reconstruction error")
	psnrFloor := fs.Float64("psnr", 0, "enforce this minimum PSNR in dB")
	guardMode := fs.String("guard-mode", "analytic", "guard verification: analytic or decode (paranoid)")
	sf := addStoreFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *in == "" {
		return fmt.Errorf("save: -dir and -in are required")
	}
	finishObs, err := startObs(of)
	if err != nil {
		return err
	}
	defer finishObs()
	var codec ckpt.Codec
	if *bound > 0 || *relBound > 0 || *psnrFloor > 0 || *codecName == "guard" {
		vm, err := guard.ParseVerifyMode(*guardMode)
		if err != nil {
			return err
		}
		codec = ckpt.NewGuard(guard.Policy{
			MaxAbs: *bound, MaxRel: *relBound, PSNRFloor: *psnrFloor, Verify: vm})
	} else {
		codec, err = ckpt.CodecByName(*codecName)
		if err != nil {
			return err
		}
	}
	if *shuffle {
		switch c := codec.(type) {
		case *ckpt.Gzip:
			c.Shuffle = true
		case *ckpt.Lossy:
			c.Options.Shuffle = true
		case *ckpt.Guard:
			c.Options.Shuffle = true
		default:
			return fmt.Errorf("save: -shuffle is not supported by codec %q", codec.Name())
		}
	}
	if *autotune {
		tn := tune.New(tune.Config{})
		switch c := codec.(type) {
		case *ckpt.Lossy:
			c.Tuner = tn
		case *ckpt.Guard:
			c.Tuner = tn
		default:
			return fmt.Errorf("save: -autotune needs the lossy or guard codec, not %q", codec.Name())
		}
	}
	mgr := ckpt.NewManager(codec, *workers)
	mgr.EnableQualityTelemetry(*quality)
	for _, path := range strings.Split(*in, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		fld, err := readField(path)
		if err != nil {
			return err
		}
		if err := mgr.Register(varNameFromPath(path), fld); err != nil {
			return err
		}
	}
	st, err := sf.open(*dir, store.Options{Keep: *keep, Dedup: *dedup})
	if err != nil {
		return err
	}
	rep, gen, err := mgr.CheckpointTo(st, *step)
	if err != nil {
		return err
	}
	st.Wait() // replicas past quorum may still be committing
	fmt.Printf("committed generation %d (step %d): %d arrays, %d -> %d bytes (cr %.2f%%)\n",
		gen.Seq, *step, len(rep.Entries), rep.RawBytes, rep.CompressedBytes,
		stats.CompressionRate(int(gen.Size), rep.RawBytes))
	for _, e := range rep.Entries {
		if e.Guarantee != nil {
			fmt.Printf("  %s: %s\n", e.Name, e.Guarantee)
		}
	}
	fmt.Printf("store %s retains %d generation(s), keep %d\n", st.Dir(), len(st.Generations()), *keep)
	if *dedup {
		printDedupStats(st)
	}
	if rs, ok := st.(*store.ReplicatedStore); ok {
		fmt.Printf("replicated %d-way (write quorum %d), backend %s\n",
			rs.Replicas(), rs.Quorum(), *sf.backend)
	}
	return nil
}

func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	dir := fs.String("dir", "", "checkpoint store directory (required)")
	out := fs.String("out", "", "output directory for restored .grd files (required)")
	workers := fs.Int("workers", 0, "parallel decompression workers (0 = GOMAXPROCS, 1 = serial)")
	sf := addStoreFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *out == "" {
		return fmt.Errorf("restore: -dir and -out are required")
	}
	finishObs, err := startObs(of)
	if err != nil {
		return err
	}
	defer finishObs()
	st, err := sf.open(*dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Wait()
	if st.Rebuilt() {
		fmt.Fprintln(os.Stderr, "restore: manifest was missing or corrupt; index rebuilt from directory scan")
	}
	lc, err := ckpt.LoadLatest(st, *workers)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, lf := range lc.Fields {
		path := filepath.Join(*out, lf.Name+".grd")
		if err := writeField(path, lf.Field); err != nil {
			return err
		}
		fmt.Printf("restored %s: %s\n", path, lf.Field)
		if lf.Guarantee != nil {
			fmt.Printf("  guarantee: %s\n", lf.Guarantee)
		}
	}
	latest, _ := st.Latest()
	fmt.Printf("generation %d (step %d, codec %s): %d array(s) recovered\n",
		lc.Generation, lc.Step, lc.Codec, len(lc.Fields))
	if lc.Generation != latest.Seq {
		fmt.Printf("fell back from generation %d to %d\n", latest.Seq, lc.Generation)
	}
	if lc.Partial {
		fmt.Printf("partial recovery: %d frame(s) skipped\n", lc.SkippedFrames)
	}
	return nil
}

func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	dir := fs.String("dir", "", "checkpoint store directory (required)")
	decode := fs.Bool("decode", false, "fully decode every entry (paranoid; slow for large stores)")
	workers := fs.Int("workers", 0, "decode workers (0 = GOMAXPROCS)")
	sf := addStoreFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("fsck: -dir is required")
	}
	finishObs, err := startObs(of)
	if err != nil {
		return err
	}
	defer finishObs()
	st, err := sf.open(*dir, store.Options{Keep: -1})
	if err != nil {
		return err
	}
	defer st.Wait()
	if st.Rebuilt() {
		fmt.Println("manifest was missing or corrupt; index rebuilt from directory scan")
	}
	rep, err := st.Scrub(store.ScrubOptions{Verify: ckpt.StoreVerifier(*decode, *workers)})
	if err != nil {
		return err
	}
	fmt.Printf("checked %d generation(s)\n", rep.Checked)
	for _, q := range rep.Quarantined {
		fmt.Printf("  generation %d corrupt (%s): moved to %s\n", q.Seq, q.Reason, q.Path)
	}
	for _, seq := range rep.Missing {
		fmt.Printf("  generation %d missing: dropped from index\n", seq)
	}
	if rep.ManifestRebuilt {
		fmt.Println("newest generation was quarantined; manifest rebuilt from surviving files")
	}
	for _, rs := range rep.Replicas {
		if rs.Err != nil {
			fmt.Printf("  replica %d: unavailable: %v\n", rs.Replica, rs.Err)
			continue
		}
		if rs.Report != nil {
			for _, q := range rs.Report.Quarantined {
				fmt.Printf("  replica %d: generation %d corrupt (%s): moved to %s\n",
					rs.Replica, q.Seq, q.Reason, q.Path)
			}
			for _, seq := range rs.Report.Missing {
				fmt.Printf("  replica %d: generation %d missing\n", rs.Replica, seq)
			}
		}
		if len(rs.Repaired) > 0 {
			fmt.Printf("  replica %d: read-repair re-materialized generation(s) %v\n", rs.Replica, rs.Repaired)
		}
		if len(rs.Dropped) > 0 {
			fmt.Printf("  replica %d: dropped obsolete generation(s) %v\n", rs.Replica, rs.Dropped)
		}
	}
	if len(rep.Replicas) > 0 {
		fmt.Printf("replica divergence after repair: %d generation(s)\n", rep.Divergent)
	}
	if bad, derr := fsckDedup(st); derr != nil {
		return derr
	} else if bad {
		return fmt.Errorf("fsck: chunk store is not clean")
	}
	// Report the surviving entries' entropy framing and guarantees so an
	// operator knows what a restore would promise.
	for _, g := range st.Generations() {
		data, verified, err := st.ReadGenerationRaw(g.Seq)
		if err != nil || !verified {
			continue
		}
		if info, err := ckpt.InspectStream(data); err == nil {
			for _, e := range info.Entries {
				if e.Guarantee != nil {
					fmt.Printf("  generation %d %s: entropy %s, %s\n", g.Seq, e.Name, e.Entropy, e.Guarantee)
				} else {
					fmt.Printf("  generation %d %s: entropy %s\n", g.Seq, e.Name, e.Entropy)
				}
			}
		}
	}
	if !rep.Clean() {
		return fmt.Errorf("fsck: %d generation(s) quarantined, %d missing, %d divergent",
			len(rep.Quarantined), len(rep.Missing), rep.Divergent)
	}
	fmt.Println("store is clean")
	return nil
}
