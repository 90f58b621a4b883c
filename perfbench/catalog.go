package main

// metricDef is one entry of the metric catalog, mirrored by BENCHMARK.json
// at the repository root (a unit test keeps the two in step).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_eps", "1/s", "higher", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.15},
	{"visible_p99_ms", "ms", "lower", 0.15},
	{"fitness", "ratio", "higher", 0.06},
	{"rel_fitness", "ratio", "higher", 0.05},
	{"heap_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's per-layer metrics; they carry no bound.
var perLayer = []metricDef{
	{"window.us_per_change", "us", "lower", 0},
	{"window.changes_per_tuple", "count", "lower", 0},
	{"window.fill_s", "s", "lower", 0},
	{"core.us_per_change", "us", "lower", 0},
	{"core.share", "ratio", "lower", 0},
	{"cpd.fitness_ms", "ms", "lower", 0},
	{"cpd.fitness_share", "ratio", "lower", 0},
	{"tensor.nnz", "count", "lower", 0},
	{"publish.copy_ms", "ms", "lower", 0},
	{"publish.count", "count", "lower", 0},
	{"als.start_s", "s", "lower", 0},
	{"engine.overhead_share", "ratio", "lower", 0},
	{"engine.push_wait_ms_p99", "ms", "lower", 0},
	{"engine.queue_depth_p99", "count", "lower", 0},
	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.fsync_ms_p99", "ms", "lower", 0},
	{"wal.bytes_per_tuple", "B", "lower", 0},
	{"ckpt.capture_ms", "ms", "lower", 0},
	{"ckpt.bytes", "B", "lower", 0},
	{"http.post_us_p50", "us", "lower", 0},
	{"http.self_us", "us", "lower", 0},
	{"http.predict_us_p50_idle", "us", "lower", 0},
	{"http.predict_us_p50_load", "us", "lower", 0},
	{"load.sched_lag_p99_ms", "ms", "lower", 0},
	{"trace.accounted_share", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.ingest_eps", "1/s", "higher", 0},
}
