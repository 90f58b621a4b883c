// Prometheus text-exposition endpoint and HTTP middleware instrumentation.
//
// The exposition is hand-rolled on purpose: the module is stdlib-only and
// stays that way. The format emitted is the Prometheus text format 0.0.4
// (HELP/TYPE headers, escaped labels, cumulative histogram buckets with a
// terminal +Inf, counters with a _total suffix); metrics_test.go holds a
// conformance test that parses every line.
package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"slicenstitch"
	"slicenstitch/internal/metrics"
)

// processStart anchors sns_process_uptime_seconds.
var processStart = time.Now()

// routeStats is one route's request counters: per-status-class counts
// (bounded cardinality — "2xx" not "200") and a latency histogram. All
// fields are atomics; the middleware records, the scrape reads.
type routeStats struct {
	method  string
	pattern string
	codes   [6]atomic.Uint64 // index status/100; [0] counts invalid codes
	latency metrics.Histogram
}

// httpStats maps route patterns to their counters. The route set is
// fixed at mux construction, so lookups after that are read-only — no
// lock anywhere near a request.
type httpStats struct {
	routes []*routeStats
}

func (h *httpStats) register(method, pattern string) *routeStats {
	rs := &routeStats{method: method, pattern: pattern}
	h.routes = append(h.routes, rs)
	return rs
}

// statusRecorder captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// middleware wraps a handler with request counting and latency recording
// for one registered route.
func (h *httpStats) middleware(rs *routeStats, next http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: rw, status: http.StatusOK}
		next(rec, req)
		cls := rec.status / 100
		if cls < 1 || cls > 5 {
			cls = 0
		}
		rs.codes[cls].Add(1)
		rs.latency.Record(time.Since(start))
	}
}

// promWriter emits one exposition document. Families must be emitted
// name-grouped (HELP/TYPE once, then every series), which the writeX
// helpers enforce by taking all series of a family at once.
type promWriter struct {
	w io.Writer
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// labels renders {k="v",…} from pairs, empty string with no pairs.
func labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// series is one (labels, value) sample of a family.
type series struct {
	labels string
	value  float64
}

func (p *promWriter) family(name, help, typ string, ss ...series) {
	p.header(name, help, typ)
	for _, s := range ss {
		fmt.Fprintf(p.w, "%s%s %s\n", name, s.labels, formatValue(s.value))
	}
}

// histSeries is one labeled histogram of a histogram family.
type histSeries struct {
	labels []string // label pairs, WITHOUT le
	snap   metrics.HistogramSnapshot
}

// histogramFamily emits a full histogram family: per-series cumulative
// buckets ending in +Inf, then _sum and _count.
func (p *promWriter) histogramFamily(name, help string, hs ...histSeries) {
	p.header(name, help, "histogram")
	for _, h := range hs {
		for _, b := range h.snap.Buckets() {
			le := formatValue(b.UpperSeconds)
			pairs := append(append([]string{}, h.labels...), "le", le)
			fmt.Fprintf(p.w, "%s_bucket%s %d\n", name, labels(pairs...), b.CumCount)
		}
		fmt.Fprintf(p.w, "%s_sum%s %s\n", name, labels(h.labels...), formatValue(h.snap.SumSeconds))
		fmt.Fprintf(p.w, "%s_count%s %d\n", name, labels(h.labels...), h.snap.Count)
	}
}

// metricsHandler serves GET /metrics: the engine snapshot plus the HTTP
// middleware counters, rendered as Prometheus text exposition.
func metricsHandler(e *slicenstitch.Engine, hs *httpStats, procStart time.Time) http.HandlerFunc {
	return func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(rw, e.Metrics(), hs, procStart)
	}
}

// writeMetrics renders one scrape. Families are grouped by name as the
// format requires; per-stream series enumerate in the EngineMetrics
// order, which is sorted by stream name.
func writeMetrics(w io.Writer, m slicenstitch.EngineMetrics, hs *httpStats, procStart time.Time) {
	p := &promWriter{w: w}

	p.family("sns_up", "Whether the snsserve process is serving.", "gauge", series{value: 1})
	p.family("sns_process_uptime_seconds", "Wall time since the process booted.", "gauge",
		series{value: time.Since(procStart).Seconds()})
	p.family("sns_streams", "Number of registered streams.", "gauge", series{value: float64(len(m.Streams))})
	p.family("sns_engine_durable", "1 when the WAL durability subsystem is on.", "gauge",
		series{value: b2f(m.Durable)})
	p.family("sns_recovery_seconds", "Total time spent recovering all streams from the data directory at the last boot (0 for a fresh or in-memory engine).", "gauge",
		series{value: m.RecoverySeconds})

	// Per-stream families: collect each family's series across all
	// streams first, because the exposition format requires all series of
	// one family to be contiguous under a single HELP/TYPE header.
	type pick func(sm slicenstitch.StreamMetrics) float64
	streamSeries := func(f pick) []series {
		out := make([]series, 0, len(m.Streams))
		for _, sm := range m.Streams {
			out = append(out, series{labels: labels("stream", sm.Name), value: f(sm)})
		}
		return out
	}
	p.family("sns_ingest_events_total", "Events applied by the shard writer.", "counter",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.Ingested) })...)
	p.family("sns_ingest_errors_total", "Events rejected by validation (bad coordinates, stale timestamps).", "counter",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.Errors) })...)
	p.family("sns_ingest_batches_total", "Batches applied by the shard writer.", "counter",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.Batches) })...)
	p.family("sns_ingest_rate_events_per_second", "Windowed (EWMA) ingest rate; recent seconds dominate.", "gauge",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Stats.IngestPerSec })...)
	p.family("sns_publishes_total", "Snapshot publishes by the shard writer.", "counter",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.Publishes) })...)
	p.family("sns_publish_lag_seconds", "Wall time since the last snapshot publish — how stale reads currently are.", "gauge",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Stats.PublishLagMillis / 1e3 })...)
	p.family("sns_writer_busy_seconds_total", "Cumulative wall time the shard writer spent applying batches.", "counter",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Stats.BusyMillis / 1e3 })...)
	p.family("sns_mailbox_depth", "Batches currently queued in the shard mailbox.", "gauge",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.QueueDepth) })...)
	p.family("sns_mailbox_capacity", "Configured mailbox capacity in batches.", "gauge",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.QueueCap) })...)
	p.family("sns_mailbox_dropped_total", "Batches evicted by the drop-oldest backpressure policy.", "counter",
		streamSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Stats.Dropped) })...)

	// Pool families, present only for streams running the parallel
	// row-solve pool (Config.Parallelism > 1).
	var poolStreams []slicenstitch.StreamMetrics
	for _, sm := range m.Streams {
		if sm.Pool != nil {
			poolStreams = append(poolStreams, sm)
		}
	}
	if len(poolStreams) > 0 {
		poolSeries := func(f pick) []series {
			out := make([]series, 0, len(poolStreams))
			for _, sm := range poolStreams {
				out = append(out, series{labels: labels("stream", sm.Name), value: f(sm)})
			}
			return out
		}
		p.family("sns_pool_workers", "Row-solve worker goroutines in the stream's parallel pool.", "gauge",
			poolSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Pool.Workers) })...)
		p.family("sns_pool_pair_events_total", "Shift events whose independent time-mode row pair was solved in parallel.", "counter",
			poolSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Pool.PairEvents) })...)
		p.family("sns_pool_rows_solved_total", "Row solves executed on pool workers.", "counter",
			poolSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Pool.RowsSolved) })...)
	}

	// Admission families, present only for streams with a configured
	// RateLimit (the admission state exists only there).
	var admStreams []slicenstitch.StreamMetrics
	for _, sm := range m.Streams {
		if sm.Admission != nil {
			admStreams = append(admStreams, sm)
		}
	}
	if len(admStreams) > 0 {
		admSeries := func(f pick) []series {
			out := make([]series, 0, len(admStreams))
			for _, sm := range admStreams {
				out = append(out, series{labels: labels("stream", sm.Name), value: f(sm)})
			}
			return out
		}
		p.family("sns_admission_accepted_events_total", "Events admitted past the stream's rate-limit token bucket.", "counter",
			admSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Admission.AcceptedEvents) })...)
		p.family("sns_admission_limited_events_total", "Events refused by the rate limit (429 rate_limited over HTTP).", "counter",
			admSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Admission.LimitedEvents) })...)
		p.family("sns_admission_limited_batches_total", "PushBatch calls refused whole by the rate limit.", "counter",
			admSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Admission.LimitedBatches) })...)
		p.family("sns_admission_rate_limit_events_per_second", "Configured admission rate limit.", "gauge",
			admSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Admission.RateLimit })...)
		p.family("sns_admission_tokens", "Current token-bucket fill in events; the burst capacity still admissible right now.", "gauge",
			admSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Admission.Tokens })...)
	}

	applyHists := make([]histSeries, 0, len(m.Streams))
	for _, sm := range m.Streams {
		applyHists = append(applyHists, histSeries{labels: []string{"stream", sm.Name}, snap: sm.Apply})
	}
	p.histogramFamily("sns_batch_apply_seconds",
		"Latency of applying one ingest batch on the shard writer goroutine.", applyHists...)

	// Durability families, present only when at least one stream is
	// durable (all-or-nothing per engine today, but built per-stream).
	var walStreams []slicenstitch.StreamMetrics
	for _, sm := range m.Streams {
		if sm.WAL != nil {
			walStreams = append(walStreams, sm)
		}
	}
	if len(walStreams) > 0 {
		walSeries := func(f pick) []series {
			out := make([]series, 0, len(walStreams))
			for _, sm := range walStreams {
				out = append(out, series{labels: labels("stream", sm.Name), value: f(sm)})
			}
			return out
		}
		p.family("sns_wal_appends_total", "Records appended to the write-ahead log.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.WAL.Appends) })...)
		p.family("sns_wal_append_bytes_total", "Payload bytes appended to the write-ahead log.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.WAL.AppendBytes) })...)
		p.family("sns_wal_fsyncs_total", "fsync syscalls issued by the write-ahead log.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.WAL.Fsyncs) })...)
		p.family("sns_wal_segments_created_total", "WAL segment files created.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.WAL.SegmentsCreated) })...)
		p.family("sns_wal_segments_truncated_total", "Sealed WAL segments reclaimed after checkpoints.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.WAL.TruncatedSegs) })...)
		p.family("sns_checkpoints_total", "Background checkpoints persisted.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Checkpoint.Checkpoints) })...)
		p.family("sns_checkpoint_failures_total", "Background checkpoint persists that failed.", "counter",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Checkpoint.Failures) })...)
		p.family("sns_checkpoint_last_bytes", "Size of the most recent checkpoint file.", "gauge",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Checkpoint.LastBytes) })...)
		p.family("sns_checkpoint_age_seconds", "Wall time since the last successful checkpoint (0 before the first).", "gauge",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Checkpoint.SecondsSince })...)
		p.family("sns_stream_recovery_seconds", "Per-stream crash-recovery time at the last boot.", "gauge",
			walSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.RecoverySeconds })...)

		walAppend := make([]histSeries, 0, len(walStreams))
		walFsync := make([]histSeries, 0, len(walStreams))
		ckptDur := make([]histSeries, 0, len(walStreams))
		for _, sm := range walStreams {
			l := []string{"stream", sm.Name}
			walAppend = append(walAppend, histSeries{labels: l, snap: sm.WAL.AppendLatency})
			walFsync = append(walFsync, histSeries{labels: l, snap: sm.WAL.FsyncLatency})
			ckptDur = append(ckptDur, histSeries{labels: l, snap: sm.Checkpoint.Duration})
		}
		p.histogramFamily("sns_wal_append_seconds",
			"Latency of one WAL append on the shard writer (buffer encode + copy, occasionally a flush).", walAppend...)
		p.histogramFamily("sns_wal_fsync_seconds",
			"Latency of one WAL fsync syscall (group commit, barrier, or segment seal).", walFsync...)
		p.histogramFamily("sns_checkpoint_duration_seconds",
			"Latency of persisting one background checkpoint (frame, fsync, rename).", ckptDur...)
	}

	// Replication families, present only on a follower engine (the
	// engine-level synced gauge plus per-stream lag/bootstrap/reconnect
	// series for every stream with a running tailer).
	if m.Follower != nil {
		p.family("sns_replication_synced", "1 once the follower has reconciled its stream set against the leader and every listed stream exists locally.", "gauge",
			series{value: b2f(m.Follower.Synced)})
		var replStreams []slicenstitch.StreamMetrics
		for _, sm := range m.Streams {
			if sm.Repl != nil {
				replStreams = append(replStreams, sm)
			}
		}
		if len(replStreams) > 0 {
			replSeries := func(f pick) []series {
				out := make([]series, 0, len(replStreams))
				for _, sm := range replStreams {
					out = append(out, series{labels: labels("stream", sm.Name), value: f(sm)})
				}
				return out
			}
			p.family("sns_replication_lag_lsns", "WAL records the follower trails the leader's flushed position by.", "gauge",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Repl.LagLSNs) })...)
			p.family("sns_replication_lag_seconds", "Wall time since the follower was last caught up to the leader (0 while caught up).", "gauge",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return sm.Repl.LagSeconds })...)
			p.family("sns_replication_applied_lsn", "The follower's local WAL position — records applied so far.", "gauge",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Repl.AppliedLSN) })...)
			p.family("sns_replication_records_applied_total", "WAL records fetched from the leader and applied locally.", "counter",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Repl.RecordsApplied) })...)
			p.family("sns_replication_chunks_total", "Tail chunks fetched from the leader.", "counter",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Repl.Chunks) })...)
			p.family("sns_replication_bootstraps_total", "Checkpoint bootstraps (initial plus every gap- or divergence-forced re-bootstrap).", "counter",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Repl.Bootstraps) })...)
			p.family("sns_replication_tail_reconnects_total", "Tail requests that failed in transport and were retried with backoff.", "counter",
				replSeries(func(sm slicenstitch.StreamMetrics) float64 { return float64(sm.Repl.TailReconnects) })...)

			bootHists := make([]histSeries, 0, len(replStreams))
			for _, sm := range replStreams {
				bootHists = append(bootHists, histSeries{labels: []string{"stream", sm.Name}, snap: sm.Repl.BootstrapDuration})
			}
			p.histogramFamily("sns_replication_bootstrap_duration_seconds",
				"Latency of one checkpoint bootstrap (fetch + restore + local WAL reset).", bootHists...)
		}
	}

	// HTTP middleware families. Routes enumerate in registration order,
	// which is fixed at mux construction; codes ascend within a route.
	if hs != nil && len(hs.routes) > 0 {
		var reqs []series
		hists := make([]histSeries, 0, len(hs.routes))
		sorted := append([]*routeStats(nil), hs.routes...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].pattern != sorted[j].pattern {
				return sorted[i].pattern < sorted[j].pattern
			}
			return sorted[i].method < sorted[j].method
		})
		for _, rs := range sorted {
			for cls := 1; cls <= 5; cls++ {
				n := rs.codes[cls].Load()
				if n == 0 {
					continue
				}
				reqs = append(reqs, series{
					labels: labels("route", rs.pattern, "method", rs.method, "code", fmt.Sprintf("%dxx", cls)),
					value:  float64(n),
				})
			}
			hists = append(hists, histSeries{labels: []string{"route", rs.pattern, "method", rs.method}, snap: rs.latency.Snapshot()})
		}
		p.family("sns_http_requests_total", "HTTP requests served, by route, method, and status class.", "counter", reqs...)
		p.histogramFamily("sns_http_request_duration_seconds", "HTTP request latency by route.", hists...)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
