package main

import (
	"fmt"
	"math"
	"math/rand"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/faultsim"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/store"
	"lossyckpt/internal/tune"
)

// A workload is one configuration of the save→restore path and the inputs
// it runs on. The names are final: later issues refer to them.
type workload struct {
	name string
	// why says which layers the workload loads and which it leaves idle.
	why string
	// daemon runs the ops through the lossyckptd binary over loopback HTTP
	// (codec lz4, two tenants with three replicas each) and not in process.
	daemon    bool
	newInputs func(seed int64, scale int) (*inputs, error)
	// newCodec returns a fresh codec: tuner state belongs to one set-up.
	newCodec func(in *inputs) ckpt.Codec
	// stream commits through CheckpointStreamTo, otherwise CheckpointTo.
	stream    bool
	delta     bool
	storeOpts store.Options
	// The promise a restored field is checked against: bit-exact, the guard
	// annotation of its entry, or for plain lossy a ceiling on the paper's
	// Eq. 6 relative error recorded here (about twice what seeds 1-12 show).
	lossless bool
	guarded  bool
	ceilPct  float64
	// traceCycles fixes the cycle count of each phase of a traced run, so
	// that per-op counts repeat exactly between runs of one seed.
	traceCycles int
}

const (
	warmupCycles  = 3
	psnrFloor     = 80
	bigChunk      = 128
	sparseSlabs   = 64
	sparseMutate  = 0.01
	daemonClients = 2
)

var workloads = []*workload{
	{
		name: "climate5_lossy",
		why: "the paper's configuration: five 1156x82x2 fields, Haar + proposed quantization + gzip, " +
			"one posix store; codec-bound with DEFLATE the largest stage and the store nearly idle",
		newInputs:   climateInputs,
		newCodec:    func(*inputs) ckpt.Codec { return ckpt.NewLossy() },
		stream:      true,
		storeOpts:   store.Options{Keep: 3},
		ceilPct:     0.05,
		traceCycles: 8,
	},
	{
		name: "big24_tuned_stream",
		why: "one 24 MB array in 128-plane slabs with the tuner choosing stage 4 (lz4+shuffle here), streamed: " +
			"the intra-array engine, shuffle/lz4 and streaming allocations work here and not in climate5_lossy",
		newInputs: bigInputs,
		newCodec: func(*inputs) ckpt.Codec {
			l := ckpt.NewLossy()
			l.ChunkExtent = bigChunk
			l.Tuner = tune.New(tune.Config{})
			return l
		},
		stream:      true,
		storeOpts:   store.Options{Keep: 3},
		ceilPct:     0.25,
		traceCycles: 8,
	},
	{
		name: "climate5_guard_psnr80",
		why: "climate5_lossy's fields and store under guard PSNR>=80: the ladder re-encodes and two winds fall " +
			"to lossless bands, so a ladder change shows here and climate5_lossy is the control",
		newInputs:   climateInputs,
		newCodec:    func(*inputs) ckpt.Codec { return ckpt.NewGuard(guard.Policy{PSNRFloor: psnrFloor}) },
		stream:      true,
		storeOpts:   store.Options{Keep: 3},
		guarded:     true,
		traceCycles: 4,
	},
	{
		name: "sparse16_delta_dedup",
		why: "a 16 MiB array mutating 1% per step with delta slabs and a dedup store: the codec is skipped for " +
			"~99% of slabs, so field hashing, the gear chunker + SHA-256 and the recipe commit dominate",
		newInputs: sparseInputs,
		newCodec: func(in *inputs) ckpt.Codec {
			l := ckpt.NewLossy()
			l.ChunkExtent = max(in.app.Field().Len()/sparseSlabs, 1)
			return l
		},
		delta: true,
		storeOpts: store.Options{
			Keep:       4,
			Dedup:      true,
			DedupChunk: cas.Config{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10},
		},
		ceilPct:     0.25,
		traceCycles: 10,
	},
	{
		name: "daemon_rep3_lz4",
		why: "two clients save and restore the climate fields through the lossyckptd binary, codec lz4, " +
			"3 replicas quorum 2: wire, HTTP, admission, fan-out writes and fsyncs, with reads beside writes",
		daemon:      true,
		newInputs:   climateInputs,
		newCodec:    func(*inputs) ckpt.Codec { return ckpt.NewLZ4() },
		stream:      true,
		storeOpts:   store.Options{Keep: 3},
		lossless:    true,
		traceCycles: 8,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a run feeds the program, made from the seed before
// anything is timed: either a ring of field snapshots or the sparse
// application whose steps mutate its one array in place.
type inputs struct {
	names []string
	snaps [][]*grid.Field
	app   *faultsim.SparseApp
	// logical is the size of one generation's arrays in bytes.
	logical int
}

// newFields allocates arrays shaped like the workload's variables. For the
// sparse application the live array is the application's own.
func (in *inputs) newFields(live bool) []*grid.Field {
	if in.app != nil {
		if live {
			return []*grid.Field{in.app.Field()}
		}
		return []*grid.Field{grid.MustNew(in.app.Field().Shape()...)}
	}
	fs := make([]*grid.Field, len(in.names))
	for i, f := range in.snaps[0] {
		fs[i] = grid.MustNew(f.Shape()...)
	}
	return fs
}

// load advances the application to cycle n: the next snapshot is copied into
// the live arrays, or the sparse application takes one step.
func (in *inputs) load(n int, live []*grid.Field) {
	if in.app != nil {
		in.app.Step()
		return
	}
	for i, f := range in.snaps[n%len(in.snaps)] {
		copy(live[i].Data(), f.Data())
	}
}

const climateSnapshots = 8

// climateInputs steps the NICAM stand-in past its initial transient and
// keeps eight consecutive states of its five fields. The trajectory is the
// same for every seed; the seed turns the states about the periodic x axis
// and picks the state the ring starts with. Every value moves, but by an
// even number of columns, so the Haar pairs, hence the quantizer's and the
// guard ladder's decisions, hence ratio and PSNR are the same for every
// seed. Seeding the model itself flips ladder rungs from seed to seed (one
// more variable falls to lossless bands on about a third of them) and
// spreads stored_bytes_per_raw_byte by 9 % and the median save time by 15 %.
func climateInputs(seed int64, scale int) (*inputs, error) {
	cfg := climate.DefaultConfig()
	cfg.Nx = max(cfg.Nx/scale, 8)
	m, err := climate.New(cfg)
	if err != nil {
		return nil, err
	}
	m.StepN(2)
	rng := rand.New(rand.NewSource(seed))
	turn, start := 2*rng.Intn(cfg.Nx/2), rng.Intn(climateSnapshots)
	in := &inputs{snaps: make([][]*grid.Field, climateSnapshots)}
	for _, nf := range m.Fields() {
		in.names = append(in.names, nf.Name)
		in.logical += nf.Field.Bytes()
	}
	for k := 0; k < climateSnapshots; k++ {
		m.Step()
		var snap []*grid.Field
		for _, nf := range m.Fields() {
			f := grid.MustNew(nf.Field.Shape()...)
			src, cut := nf.Field.Data(), turn*nf.Field.Stride(0)
			copy(f.Data(), src[cut:])
			copy(f.Data()[len(src)-cut:], src[:cut])
			snap = append(snap, f)
		}
		in.snaps[(k+start)%climateSnapshots] = snap
	}
	if !m.Stable() {
		return nil, fmt.Errorf("climate model unstable")
	}
	return in, nil
}

// bigInputs builds three time levels of one smooth climate-like array 16
// times the paper's size: a drifting zonal wave plus vertical and component
// structure and small-scale noise. The seed sets the noise and where on the
// periodic axis the wave starts, so every seed has the same statistics. The
// climate model itself would take minutes to spin up at this size.
func bigInputs(seed int64, scale int) (*inputs, error) {
	nx, nz, nc := max(16*climate.DefaultNx/scale, 8), climate.DefaultNz, climate.DefaultNc
	rng := rand.New(rand.NewSource(seed))
	phase := rng.Float64()
	in := &inputs{names: []string{"field"}, logical: nx * nz * nc * 8}
	sz := make([]float64, nz)
	for j := range sz {
		sz[j] = 20 * math.Sin(2*math.Pi*2*float64(j)/float64(nz))
	}
	for t := 0; t < 3; t++ {
		f := grid.MustNew(nx, nz, nc)
		d := f.Data()
		off := 0
		for i := 0; i < nx; i++ {
			sx := 250 + 20*math.Sin(2*math.Pi*(float64(i)/float64(nx)+phase+0.01*float64(t)))
			for j := 0; j < nz; j++ {
				for k := 0; k < nc; k++ {
					d[off] = sx + sz[j] + 7.5*float64(k) + 0.05*rng.NormFloat64()
					off++
				}
			}
		}
		in.snaps = append(in.snaps, []*grid.Field{f})
	}
	return in, nil
}

func sparseInputs(seed int64, scale int) (*inputs, error) {
	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{
		Elems:          max((1<<21)/scale, sparseSlabs),
		MutateFraction: sparseMutate,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	return &inputs{names: []string{"state"}, app: app, logical: app.Field().Bytes()}, nil
}
