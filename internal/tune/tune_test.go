package tune

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// floatSample packs a smooth float64 signal, the shape checkpoint
// variables have.
func floatSample(n int) []byte {
	out := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		u := math.Float64bits(300 + 20*math.Sin(float64(i)/150))
		for k := 0; k < 8; k++ {
			out = append(out, byte(u>>(8*k)))
		}
	}
	return out
}

func TestDecideCachesPerVariable(t *testing.T) {
	tn := New(Config{})
	sample := floatSample(8192)
	first := tn.Decide("temp", len(sample), sample)
	for i := 0; i < 5; i++ {
		if got := tn.Decide("temp", len(sample), sample); got != first {
			t.Fatalf("cached decision changed on use %d: %v -> %v", i, first, got)
		}
	}
	if _, ok := tn.Cached("temp"); !ok {
		t.Fatal("no cached decision after Decide")
	}
	if _, ok := tn.Cached("pressure"); ok {
		t.Fatal("unrelated variable has a cached decision")
	}
}

// fastestOfFive probes the sample five times and keeps each candidate's
// fastest run: a probe is one timing of a quarter megabyte or less, and beside
// other tests it is preempted now and then.
func fastestOfFive(tn *Tuner, sample []byte) []candidate {
	cands := tn.measure(sample)
	for round := 0; round < 4; round++ {
		for i, c := range tn.measure(sample) {
			cands[i].seconds = min(cands[i].seconds, c.seconds)
		}
	}
	return cands
}

// cheapest is the candidate the tuner's objective ranks first for a variable
// of raw bytes probed on a sample of n.
func cheapest(tn *Tuner, cands []candidate, raw, n int) candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if tn.cost(c, raw, n) < tn.cost(best, raw, n) {
			best = c
		}
	}
	return best
}

func TestThroughputObjectivePicksLZ4(t *testing.T) {
	// With one lz4 candidate a single preempted probe would hand the pick to
	// gzip, so the ranking is taken over each candidate's fastest probe.
	tn := New(Config{Objective: Throughput})
	sample := bytes.Repeat(floatSample(4096), 4)
	best := cheapest(tn, fastestOfFive(tn, sample), 64<<20, len(sample))
	if best.setting.Codec != entropy.LZ4 {
		t.Fatalf("throughput objective picked %s, want lz4", best.setting.Label())
	}
}

// TestBalancedPickOnBig24IsLZ4 pins the decision the 24 MB streamed
// benchmark workload rests on: for doubles that are a smooth field plus
// 0.05-sigma noise, probed in the container's byte lanes, the Balanced
// objective takes lz4 — and no candidate asks for the whole-stream shuffle,
// which the lanes replaced. The candidates' costs are logged, so that the
// margin shows the day a faster DEFLATE stage narrows it. Beside the other
// packages of `go test ./...` a probe is slowed now and then, so the test
// fails only when lz4 costs over 5 % more than the cheapest candidate — a
// ranking that changed, not a timing that wobbled.
func TestBalancedPickOnBig24IsLZ4(t *testing.T) {
	const raw = 16 * 1156 * 82 * 2 * 8
	rng := rand.New(rand.NewSource(24))
	sample := make([]byte, 0, 256<<10)
	for i := 0; len(sample) < cap(sample); i++ {
		x, z, c := float64(i/164)/(16*1156), float64(i/2%82)/82, float64(i%2)
		v := 250 + 20*math.Sin(2*math.Pi*x) + 20*math.Sin(4*math.Pi*z) + 7.5*c + 0.05*rng.NormFloat64()
		sample = binary.LittleEndian.AppendUint64(sample, math.Float64bits(v))
	}
	tn := New(Config{})
	cands := fastestOfFive(tn, sample)
	best := cheapest(tn, cands, raw, len(sample))
	for _, c := range cands {
		t.Logf("%-5s %6.1f MB/s, ratio %.3f: balanced cost %6.1f ms for the %d MB variable",
			c.setting.Label(), float64(len(sample))/c.seconds/1e6, c.ratio, 1e3*tn.cost(c, raw, len(sample)), raw>>20)
		if c.setting.Shuffle {
			t.Errorf("candidate %s asks for the whole-stream shuffle", c.setting.Label())
		}
	}
	if raceEnabled {
		t.Skip("speeds measured under the race detector do not rank as they do without it")
	}
	for _, c := range cands {
		if c.setting.Codec == entropy.LZ4 {
			if mine, least := tn.cost(c, raw, len(sample)), tn.cost(best, raw, len(sample)); mine > 1.05*least {
				t.Errorf("lz4 costs %.1f ms on the big24 sample, %.1f %% over %s: the balanced objective no longer picks it",
					1e3*mine, 100*(mine/least-1), best.setting.Label())
			}
			return
		}
	}
	t.Error("lz4 is not among the candidates")
}

func TestRatioObjectivePicksGzip(t *testing.T) {
	tn := New(Config{Objective: Ratio})
	sample := floatSample(32768)
	s := tn.Decide("v", len(sample), sample)
	if s.Codec != entropy.Gzip {
		t.Fatalf("ratio objective picked %s, want gzip", s.Label())
	}
}

func TestReProbeAfterUses(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	tn := New(Config{})
	sample := floatSample(4096)
	refreshes := func() float64 {
		return reg.Counter(MetricReProbes, "reason", "refresh").Value()
	}
	// The probe and the fifteen uses its decision is good for.
	for i := 0; i < reProbeEvery; i++ {
		tn.Decide("v", len(sample), sample)
	}
	if got := refreshes(); got != 0 {
		t.Fatalf("%v refresh re-probes within the first %d uses, want 0", got, reProbeEvery)
	}
	tn.Decide("v", len(sample), sample)
	if got := refreshes(); got != 1 {
		t.Fatalf("%v refresh re-probes after %d uses, want 1", got, reProbeEvery+1)
	}
}

func TestObserveDriftInvalidates(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	tn := New(Config{})
	sample := floatSample(8192)
	tn.Decide("v", len(sample), sample)
	if _, ok := tn.Cached("v"); !ok {
		t.Fatal("no cached decision")
	}
	// Report a wildly slower encode than the probe predicted.
	tn.Observe("v", len(sample), 3600)
	if _, ok := tn.Cached("v"); ok {
		t.Fatal("drifted decision still cached")
	}
	var drift float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == MetricReProbes && m.Labels["reason"] == "drift" {
			drift = m.Value
		}
	}
	if drift != 1 {
		t.Fatalf("drift counter = %v, want 1", drift)
	}
}

func TestProbeAndDecisionCounters(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	tn := New(Config{})
	sample := floatSample(4096)
	tn.Decide("v", len(sample), sample)
	probes, decisions := 0.0, 0.0
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case MetricProbes:
			probes += m.Value
		case MetricDecisions:
			decisions += m.Value
		}
	}
	if probes != 2 {
		t.Fatalf("probe counter = %v, want 2 (one per candidate)", probes)
	}
	if decisions != 1 {
		t.Fatalf("decision counter = %v, want 1", decisions)
	}
}

// TestSinksInstalledAfterNew: a tuner built before the process registry and
// journal are installed records its decisions on both once they are, so the
// decision counter and the tune.decision notes tell the same story.
func TestSinksInstalledAfterNew(t *testing.T) {
	tn := New(Config{})
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	defer journal.SetDefault(journal.SetDefault(j))

	sample := floatSample(4096)
	for _, v := range []string{"u", "v", "w"} {
		tn.Decide(v, len(sample), sample)
	}
	recs, _, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	notes := 0
	for _, r := range recs {
		if r.Op == "tune.decision" {
			notes++
		}
	}
	decisions := 0.0
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == MetricDecisions {
			decisions += m.Value
		}
	}
	if notes != 3 || decisions != float64(notes) {
		t.Fatalf("%s = %v, the journal holds %d tune.decision notes; want 3 and 3", MetricDecisions, decisions, notes)
	}
}

func TestSettingApplyRoundTrips(t *testing.T) {
	// A tuner-applied setting must produce a stream core can decompress,
	// identical to the untuned reconstruction.
	f := grid.MustNew(64, 32)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		for j := 0; j < 32; j++ {
			f.Set(100+10*math.Sin(float64(i)/9)+0.01*rng.NormFloat64(), i, j)
		}
	}
	tn := New(Config{})
	raw := floatSample(2048)
	s := tn.Decide("x", f.Bytes(), raw)
	opts := s.Apply(core.DefaultOptions())
	res, err := core.Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.DecompressAnyParallel(res.Data, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Compress(f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(ref.Data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if g.Data()[i] != v {
			t.Fatalf("tuned reconstruction differs from default at %d", i)
		}
	}
}

func TestEmptySampleFallsBack(t *testing.T) {
	tn := New(Config{})
	s := tn.Decide("v", 0, nil)
	if s.Codec != entropy.Gzip || s.Shuffle {
		t.Fatalf("empty sample decision = %v, want plain gzip default", s)
	}
}
