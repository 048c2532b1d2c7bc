package store

// Metric names recorded by the store. Commit latency/count/errors are the
// series of the store.commit operation (MetricCommitSpan is its
// journal.SpanName, yielding _seconds, _total and _errors_total), as scrub, GC
// and quorum commit have theirs; retries are labeled with the low-level op
// that needed them (create/write/sync/close/rename/syncdir/mkdir).
const (
	MetricCommitSpan       = "lossyckpt_store_commit"
	MetricCommitBytes      = "lossyckpt_store_commit_bytes_total"
	MetricRetries          = "lossyckpt_store_retries_total"
	MetricBackoffSeconds   = "lossyckpt_store_backoff_seconds_total"
	MetricManifestRebuilds = "lossyckpt_store_manifest_rebuilds_total"
	MetricSweptFiles       = "lossyckpt_store_swept_files_total"
	MetricReads            = "lossyckpt_store_reads_total"
	MetricPrunedGens       = "lossyckpt_store_pruned_generations_total"

	// Scrub metrics: runs, generations checked, generations quarantined
	// (labeled reason=<crc|size|missing|verify>), and scrub-triggered
	// manifest rebuilds fold into MetricManifestRebuilds above.
	MetricScrubRuns        = "lossyckpt_store_scrub_runs_total"
	MetricScrubChecked     = "lossyckpt_store_scrub_checked_total"
	MetricScrubQuarantined = "lossyckpt_store_scrub_quarantined_total"
	// MetricExpiredGens counts generations TTL retention pruned.
	MetricExpiredGens = "lossyckpt_store_expired_generations_total"

	// Replication metrics: per-replica commit outcomes (labeled
	// replica=<index>, ok=<true|false>), read-repair events (labeled
	// replica=<index>, reason=<missing|corrupt|divergent>), commits or
	// restores that could not assemble a quorum, and a gauge of
	// generations still differing across replicas after the last scrub
	// or repair pass.
	MetricReplicaCommits  = "lossyckpt_store_replica_commits_total"
	MetricReadRepairs     = "lossyckpt_store_read_repairs_total"
	MetricQuorumFailures  = "lossyckpt_store_quorum_failures_total"
	MetricReplicaDiverged = "lossyckpt_store_replica_divergence"

	// Dedup metrics: chunk outcomes per commit (new = written,
	// reused = already present), cumulative logical vs physical bytes
	// committed through the dedup path, the logical/physical ratio of
	// the last dedup commit, and GC activity (runs, chunks swept, live
	// chunk population after the last pass).
	MetricDedupChunksNew     = "lossyckpt_store_dedup_chunks_new_total"
	MetricDedupChunksReused  = "lossyckpt_store_dedup_chunks_reused_total"
	MetricDedupLogicalBytes  = "lossyckpt_store_dedup_logical_bytes_total"
	MetricDedupPhysicalBytes = "lossyckpt_store_dedup_physical_bytes_total"
	MetricDedupRatio         = "lossyckpt_store_dedup_ratio"
	MetricGCRuns             = "lossyckpt_store_gc_runs_total"
	MetricGCSweptChunks      = "lossyckpt_store_gc_swept_chunks_total"
	MetricGCLiveChunks       = "lossyckpt_store_gc_live_chunks"
)
