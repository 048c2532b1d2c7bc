# Development targets for the lossyckpt repo. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite under
# the race detector, and a short fuzz pass over every decoder.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt-check vet telemetry-lint stage4-lint experiments-lint results build test race loc bench-test fuzz-smoke serve-smoke crash-matrix-replicated crash-matrix-dedup bench-parallel bench-obs bench-gzip bench-entropy bench-dedup bench-qa bench-smoke bench-compare bench-compare-smoke

check: fmt-check vet telemetry-lint stage4-lint experiments-lint build race bench-test fuzz-smoke serve-smoke bench-compare-smoke

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# telemetry-lint keeps the sinks process-wide: outside internal/obs and
# internal/server (whose Config carries the daemon's own pair), no struct holds
# a *obs.Registry or a *journal.Journal and no type grows a
# SetObserver/SetJournal, so a layer cannot record somewhere the rest of the
# run does not. An operation is opened with journal.Begin and a fact recorded
# with journal.Note; the registry has no span or event call of its own to
# reach around them.
TELEMETRY_LINT_GREP = grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=obs --exclude-dir=bench \
	--exclude-dir=.bench_build --exclude-dir=.git

telemetry-lint:
	@if $(TELEMETRY_LINT_GREP) --exclude-dir=server \
		-e '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+\*(obs\.Registry|journal\.Journal)[[:space:]]*(//.*)?$$' \
		-e '^func \([^)]*\) Set(Observer|Journal)\(' .; then \
		echo "telemetry-lint: record on obs.Default() / journal.Default(), not on a per-layer sink"; exit 1; \
	fi

# stage4-lint keeps stage 4 behind one front door: outside internal/entropy
# and internal/gzipio no non-test code calls gzipio's whole-stream coders, so
# which bytes a selection writes (bare or enveloped, one member or sharded)
# and which selections are refused is decided by entropy.Compress alone, and
# every decode goes through entropy's sniffing. gzipio.CompressTo, the bare
# stream written onto a writer a few blocks at a time, is ckpt's streamed gzip
# encode and stays allowed.
STAGE4_LINT_GREP = grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=entropy --exclude-dir=gzipio \
	--exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=.git

stage4-lint:
	@if $(STAGE4_LINT_GREP) \
		-e 'gzipio\.(Compress|CompressFormat|CompressParallel|Decompress|DecompressAuto|DecompressMembersParallel|DecompressTo)\(' .; then \
		echo "stage4-lint: code and decode stage 4 through entropy.Compress / entropy.Decompress"; exit 1; \
	fi

# experiments-lint keeps the experiment registry single: DESIGN.md §4's "Run
# with" column names exactly the ids of harness.Experiments, in its order, and
# no harness file goes back to being named after the PR that added it.
experiments-lint:
	@GO=$(GO) sh scripts/experiments_lint.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The later lines repeat the tests in which goroutines share one buffer —
# the shards of a wavelet pass, and a dedup read (or the fsck audit) whose
# readers each read and hash chunks into their own ranges of one generation, at
# 1, 2 and 8 CPUs so the reader count varies, a dedup commit hashing and landing
# batches of chunk views while it cuts the next (cancelled mid-landing and as
# an inline repair too) — or recycle one state, as DEFLATE streams encoded side
# by side do: the race detector only sees interleavings that happen. The quant
# line quantizes in Scratches recycled through one pool by four goroutines; the
# core line runs the chunked engine's pool beside its consumer, with a slab
# cache (two, fingerprinting one array under their own seeds), a failing slab,
# a failing writer and a writer that rewrites the slabs not yet started, and
# decodes side by side through the pooled buffers their archives' codes are
# views of. The last line is the
# replicated fan-out, one coordinator for both commit shapes: per-replica
# chains, the producer's pipes, stragglers that outlive the quorum's answer, a
# replica that dies mid-stream, and an inline repair beside them. The sink
# matrix is that fan-out with the journal and the registry listening: replicas
# and stragglers open, fill and end operations and drop notes side by side. The
# journal line ends operations on many goroutines at once, with votes landing
# after End: a record is filled under the Op's lock, and is End's alone once
# it has ended. The ckpt line before it is every save's entry pipeline: encoders
# spilling behind the head while it writes, promoted under the spill's lock,
# and stopped mid-write when the writer fails or the context is cancelled.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'KernelsMatchLaneReference|WorkersBitIdentical' ./internal/wavelet
	$(GO) test -race -cpu 1,2,8 -count=10 -run 'DedupRead|FsckDedup' ./internal/store
	$(GO) test -race -count=10 -run 'DedupCommitHashesBeside' ./internal/store
	$(GO) test -race -count=10 -run 'DeflateDependsOnInputAlone|ByteStableAcrossWorkers' ./internal/gzipio
	$(GO) test -race -count=10 -run 'QuantizeDependsOnInputAlone' ./internal/quant
	$(GO) test -race -count=10 -run 'Engine|ChunkedParallelByteIdentical|CompressChunkedDeltaByteIdentical|DecodeKeepsNoView|SlabCacheFingerprint' ./internal/core
	$(GO) test -race -count=10 -run 'InlineRepair|ReplicatedStreamCommit|ReplicatedSlowReplica|ReplicatedCommitSurvivesOneDeadReplica' ./internal/store
	$(GO) test -race -count=10 -run 'SinkMatrix' ./internal/ckpt
	$(GO) test -race -count=5 -run 'StreamBytesIndependentOfWorkers|CheckpointFailurePaths' ./internal/ckpt
	$(GO) test -race -count=10 -run 'ConcurrentSpans|ConcurrentOps|ConcurrentVotesAfterEnd' ./internal/obs/journal

# results regenerates the tables EXPERIMENTS.md quotes, at paper scale, into
# results/<id>.csv and their text rendering into results/experiments_full.txt
# (about nine minutes; the 2220-step Fig. 10 run is seven of them). The 17
# deterministic tables come out byte-identical on amd64 (tab1 names the host);
# the wall-clock columns of fig9, ablate-gzip, cluster, interval, guard, entropy
# and dedup, and serve's shed count, are this host's.
results:
	$(GO) run ./cmd/experiments -run all -csv results/ > results/experiments_full.txt

# loc prints the non-test Go line count per package and in total (bench/
# excluded), then the count of exported option-struct fields: the figures
# ROADMAP.md quotes and a simplification PR is held to.
loc:
	@sh scripts/loc.sh

# bench-test vets and tests the benchmark's own module (bench/), which
# `go test ./...` at the root never reaches: its replay oracle re-derives
# the checkpoint bytes stage by stage, so a change to ckpt or core that
# breaks it fails here and not in the middle of a benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke runs every fuzz target for FUZZTIME each — a cheap guard
# that the decoders stay panic-free on adversarial input. Go allows one
# -fuzz pattern per invocation, so targets run one by one.
fuzz-smoke:
	$(GO) test ./internal/ckpt -run='^Fuzz' -fuzz='^FuzzRestore$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^Fuzz' -fuzz='^FuzzDecodeManifest$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^Fuzz' -fuzz='^FuzzOpenDir$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^Fuzz' -fuzz='^FuzzDecodePointer$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cas -run='^Fuzz' -fuzz='^FuzzDecodeRecipe$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cas -run='^Fuzz' -fuzz='^FuzzChunker$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fpc -run='^Fuzz' -fuzz='^FuzzDecompress$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fpc -run='^Fuzz' -fuzz='^FuzzRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/container -run='^Fuzz' -fuzz='^FuzzFromBytes$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wavelet -run='^Fuzz' -fuzz='^FuzzTransformIdentity$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant -run='^Fuzz' -fuzz='^FuzzChooseDivisions$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^Fuzz' -fuzz='^FuzzDecompress$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^Fuzz' -fuzz='^FuzzDecompressChunked$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^Fuzz' -fuzz='^FuzzDecompressChunkedParallel$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gzipio -run='^Fuzz' -fuzz='^FuzzDecompressMembers$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gzipio -run='^Fuzz' -fuzz='^FuzzInflateDifferential$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gzipio -run='^Fuzz' -fuzz='^FuzzDeflateRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/entropy -run='^Fuzz' -fuzz='^FuzzLZ4RoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/entropy -run='^Fuzz' -fuzz='^FuzzLZ4Decompress$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/entropy -run='^Fuzz' -fuzz='^FuzzDecompressAny$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/entropy -run='^Fuzz' -fuzz='^FuzzShuffle$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/grid -run='^Fuzz' -fuzz='^FuzzLanes$$' -fuzztime=$(FUZZTIME)

# serve-smoke exercises the checkpoint daemon end to end with real
# binaries: concurrent multi-tenant client saves, SIGTERM drain,
# restart, kill -9, and a post-kill fsck that must find every tenant
# store clean.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# crash-matrix-replicated runs the replication acceptance harnesses in
# full and verbose: the single-store and object-backend kill-at-every-
# write-boundary matrices, plus the N=3/W=2 matrix with a dead replica
# at every crash point and a lying replica at rest. Zero torn states and
# zero residual divergence or the target fails.
crash-matrix-replicated:
	$(GO) test ./internal/store -run '^TestCrashMatrix$$|^TestObjectCrashMatrix$$|^TestReplicatedCrashMatrix$$' -v -count=1

# crash-matrix-dedup kills a dedup store at every write boundary of the
# chunks -> recipe -> manifest commit and during GC: after each crash
# the store must reopen to a readable, bit-exact generation with zero
# torn state, and one GC cycle must leave zero leaked chunks.
crash-matrix-dedup:
	$(GO) test ./internal/store -run '^TestCrashMatrixDedup$$|^TestCrashMatrixDedupGC$$' -v -count=1

# bench-parallel runs the parallel-engine benchmarks that feed
# BENCH_parallel.json (workers sweeps inside one array and across the
# entries of a five-array checkpoint, the 24 MB tuned stream, the guard
# ladder on a bounded and an escalating variable, the division walk, stage 2
# on a slab and a field and stage 3's decode beside the passes they replaced,
# plus allocation counts) and the stage-1 kernels against the lane walk they
# replaced, at one and at two CPUs (the workers=0 rows shard at GOMAXPROCS).
bench-parallel:
	$(GO) test -run xxx -bench 'ChunkedParallel|Alloc|CheckpointStream(Climate5|Big24)|GuardEncodeClimate|ChooseDivisions' -benchtime 3x . ./internal/quant
	$(GO) test -run xxx -bench 'QuantizeSlab|DecodeBand' -benchtime 200x ./internal/quant ./internal/encode
	$(GO) test -run xxx -bench 'Transform' -benchtime 200x -cpu 1,2 ./internal/wavelet

# bench-obs measures the observability tax (no-op vs live registry) that
# feeds BENCH_obs.json.
bench-obs:
	$(GO) test -run xxx -bench 'ChunkedParallelObs' -benchtime 5x -count 3 .

# bench-gzip runs the block-parallel DEFLATE and streaming-checkpoint
# benchmarks that feed BENCH_gzip.json (serial vs parallel compress,
# block-size sweep, both decoders, buffered vs streaming checkpoint), the
# inflater beside compress/gzip's reader on three restore payloads and the
# encoder beside its writer on three save payloads.
bench-gzip:
	$(GO) test -run xxx -bench 'ParallelGzip|StreamingCheckpoint' -benchtime 3x .
	$(GO) test -run xxx -bench 'Inflate' -benchtime 50x .
	$(GO) test -run xxx -bench 'Deflate' -benchtime 20x .

# bench-entropy runs the pluggable-entropy-stage benchmarks that feed
# BENCH_entropy.json (lz4 vs gzip compress/decompress, the byte-shuffle
# pre-pass, and the autotuned vs gzip-only end-to-end pipeline).
bench-entropy:
	$(GO) test -run xxx -bench 'Entropy' -benchtime 3x .

# bench-dedup runs the delta-checkpoint + chunk-dedup benchmarks that
# feed BENCH_dedup.json (mutation-fraction sweep with committed physical
# bytes and elided compression CPU, the raw chunker throughput, and the save
# and the restore of the 16 MiB sparse array into and from a dedup store).
bench-dedup:
	$(GO) test -run xxx -bench 'Dedup' -benchtime 3x .

# bench-qa smokes the quality-analytics and flight-recorder loop: a heat
# workload quality report (markdown + JSON with rate-distortion table),
# a journaled save/restore round trip, and the journal post-mortem — all
# written under results/qa/ (CI uploads the directory as an artifact).
bench-qa:
	$(GO) build -o results/qa/lossyckpt ./cmd/lossyckpt
	results/qa/lossyckpt report -workload heat -steps 40 -out results/qa
	results/qa/lossyckpt gen -out results/qa/t.grd -shape 64x32x2 -steps 10
	results/qa/lossyckpt save -dir results/qa/ckpts -in results/qa/t.grd \
		-codec lossy -autotune -journal results/qa/run.jsonl
	results/qa/lossyckpt restore -dir results/qa/ckpts -out results/qa/restored \
		-journal results/qa/run.jsonl
	results/qa/lossyckpt report -journal results/qa/run.jsonl -out results/qa
	$(GO) test -run xxx -bench 'ChunkedParallelJournal' -benchtime 1x .

# bench-smoke executes every benchmark once — CI's guard that the bench
# code itself keeps compiling and running.
bench-smoke:
	$(GO) test -run xxx -bench 'ChunkedParallel|Alloc|CheckpointStream(Climate5|Big24)|GuardEncodeClimate|ChooseDivisions|QuantizeSlab|DecodeBand|ParallelGzip|StreamingCheckpoint|Inflate|Deflate|Entropy|Dedup|Transform' -benchtime 1x . ./internal/quant ./internal/encode ./internal/wavelet

# bench-compare diffs two BENCH_*.json snapshots and fails on >15%
# ns_per_op regressions:  make bench-compare OLD=old.json NEW=new.json
OLD ?= BENCH_parallel.json
NEW ?= $(OLD)
bench-compare:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# bench-compare-smoke runs the gate, as a binary with its exit status, on a
# fixture whose verdicts are known: from clean.json to regressed.json one series
# slows by 20 % (past the 15 % gate) and one by 5 % (inside it), so that
# direction must exit non-zero, and the way back — nothing slower — must exit 0.
# (A snapshot diffed against itself, the previous smoke, can only exit 0.)
FIXTURE = cmd/benchdiff/testdata
bench-compare-smoke:
	$(GO) run ./cmd/benchdiff $(FIXTURE)/regressed.json $(FIXTURE)/clean.json
	! $(GO) run ./cmd/benchdiff $(FIXTURE)/clean.json $(FIXTURE)/regressed.json
