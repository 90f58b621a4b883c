package slicenstitch

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slicenstitch/internal/engine"
	"slicenstitch/internal/metrics"
)

// Engine manages many named tracker shards — one per tensor stream or
// tenant — behind a single API. Each shard is driven by a dedicated
// single-writer goroutine fed from a bounded mailbox, which preserves the
// sequential per-stream update order the continuous tensor model requires
// while letting shards run fully in parallel. The writer publishes an
// immutable Snapshot every PublishEvery applied events and, on a started
// stream, whenever its mailbox runs dry, so reads (Snapshot, Predict,
// Streams) are wait-free and never touch the ingestion hot path.
//
// The primary client surface is the *Stream handle: AddStream and Stream
// return one, and its methods pin the shard once so the per-call cost is
// a mailbox operation with no registry lookup. The name-keyed Engine
// methods remain as a convenience; they perform one read-locked map
// lookup per call and then run the same code the handle does.
//
// Ingestion is asynchronous: PushBatch hands a batch to the shard's
// mailbox and returns. What happens when the mailbox is full is the
// stream's Backpressure policy; per-event validation errors surface in
// the shard's stats and the snapshot's LastError rather than from
// PushBatch. Use Flush to wait for everything queued so far to be
// applied. Every blocking operation takes a context.Context and unblocks
// with ctx.Err() on cancellation.
type Engine struct {
	mu     sync.RWMutex
	shards map[string]*shard
	closed bool
	// dur is the engine-level durability state (nil when the engine runs
	// purely in memory). See Open and DurabilityOptions.
	dur *durEngine
	// follower is the replication state of a read replica (nil on a
	// leader or standalone engine). Set once in Open before the engine is
	// shared, read-only afterwards. See FollowerOptions.
	follower *followerState
}

// Backpressure selects what PushBatch does when a stream's mailbox is
// full.
type Backpressure int

const (
	// BackpressureBlock makes PushBatch wait for mailbox space (default).
	BackpressureBlock Backpressure = iota
	// BackpressureDropOldest evicts the oldest queued batch to admit the
	// new one; PushBatch never blocks. Dropped batches are counted in
	// Snapshot.Dropped.
	BackpressureDropOldest
	// BackpressureError makes PushBatch fail fast with ErrBackpressure.
	BackpressureError
)

func (b Backpressure) policy() engine.Policy {
	switch b {
	case BackpressureDropOldest:
		return engine.DropOldest
	case BackpressureError:
		return engine.Error
	}
	return engine.Block
}

// String names the policy for status output.
func (b Backpressure) String() string { return b.policy().String() }

// StreamConfig configures one engine shard: the embedded tracker Config
// plus the serving knobs.
type StreamConfig struct {
	Config
	// MailboxCapacity bounds the number of queued batches before the
	// Backpressure policy applies (default 256).
	MailboxCapacity int
	// Backpressure selects the full-mailbox behaviour (default
	// BackpressureBlock).
	Backpressure Backpressure
	// PublishEvery is how many applied events may elapse between full
	// snapshot publishes, the ones that recompute the O(nnz) Fitness
	// (default 256). A started stream also republishes its counts and
	// factors whenever the writer's mailbox runs dry. PublishEvery thus
	// bounds how far Fitness trails the factors; it bounds the factors'
	// own staleness only under a sustained backlog, when the mailbox
	// never runs dry. Smaller values give fresher fitness; larger ones
	// amortize its recomputation over more updates.
	PublishEvery int
	// RateLimit caps admitted ingest at this many events per second via
	// a token bucket checked in PushBatch, before the mailbox. Offered
	// load beyond the limit is refused instantly with a *RateLimitError
	// (wrapping ErrRateLimited) carrying a retry hint — admission
	// control, distinct from the Backpressure policy that governs a full
	// mailbox. 0 (the default) disables the limit.
	RateLimit float64
	// RateBurst is the token bucket's depth in events — the largest
	// burst admitted at once (default: RateLimit rounded up, at least
	// 1). A batch larger than the burst can never be admitted, so keep
	// RateBurst at or above the largest batch producers send. Only
	// meaningful with RateLimit > 0.
	RateBurst float64
}

func (c StreamConfig) withDefaults() StreamConfig {
	c.Config = c.Config.withDefaults()
	if c.MailboxCapacity == 0 {
		c.MailboxCapacity = 256
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 256
	}
	if c.RateLimit > 0 && c.RateBurst == 0 {
		c.RateBurst = math.Ceil(c.RateLimit)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c
}

func (c StreamConfig) validate() error {
	if err := c.Config.validate(); err != nil {
		return err
	}
	if c.MailboxCapacity < 1 {
		return fmt.Errorf("%w: StreamConfig.MailboxCapacity must be positive", ErrConfig)
	}
	if c.PublishEvery < 1 {
		return fmt.Errorf("%w: StreamConfig.PublishEvery must be positive", ErrConfig)
	}
	switch c.Backpressure {
	case BackpressureBlock, BackpressureDropOldest, BackpressureError:
	default:
		return fmt.Errorf("%w: unknown backpressure policy %d", ErrConfig, c.Backpressure)
	}
	if c.RateLimit < 0 || math.IsNaN(c.RateLimit) || math.IsInf(c.RateLimit, 0) {
		return fmt.Errorf("%w: StreamConfig.RateLimit must be a non-negative finite number", ErrConfig)
	}
	if c.RateBurst < 0 || math.IsNaN(c.RateBurst) || math.IsInf(c.RateBurst, 0) {
		return fmt.Errorf("%w: StreamConfig.RateBurst must be a non-negative finite number", ErrConfig)
	}
	if c.RateLimit == 0 && c.RateBurst > 0 {
		return fmt.Errorf("%w: StreamConfig.RateBurst requires RateLimit > 0", ErrConfig)
	}
	return nil
}

// Event is one stream tuple for batch ingestion.
type Event struct {
	Coord []int   `json:"coord"`
	Value float64 `json:"value"`
	Time  int64   `json:"time"`
}

// Snapshot is the immutable published view of one shard. Readers get a
// value copy; the Factors pointer (and Dims slice) are shared but never
// mutated after publish.
//
// On a started stream Now, Events, NNZ and Factors are current as of the
// writer's last idle moment (its mailbox running dry), or at most
// PublishEvery applied events old under a sustained backlog. Fitness is
// recomputed only by a full publish — every PublishEvery applied events
// and on Start, AdvanceTo, Flush and shutdown — so it describes a model
// fewer than PublishEvery events older than Factors.
type Snapshot struct {
	Stream    string   `json:"stream"`
	Now       int64    `json:"streamNow"`
	Started   bool     `json:"started"`
	Events    uint64   `json:"events"`
	NNZ       int      `json:"nnz"`
	Fitness   float64  `json:"fitness"`
	Algorithm string   `json:"algorithm"`
	Params    int      `json:"params"`
	Dims      []int    `json:"dims"`
	W         int      `json:"w"`
	Period    int64    `json:"period"`
	Factors   *Factors `json:"-"`
	// LastError is the most recent per-event ingestion error of the
	// current publish interval (errored batches refresh it immediately,
	// so it is visible even on a stream whose events are all rejected).
	// Each full publish closes the interval and clears it, so a healthy
	// stream stops reporting a long-gone error after at most one
	// interval; ErrorsSincePublish says how many rejections the interval
	// has seen.
	LastError string `json:"lastError,omitempty"`
	// ErrorsSincePublish counts the events rejected in the current
	// publish interval (0 on a healthy stream). The lifetime total is in
	// IngestErrors.
	ErrorsSincePublish uint64 `json:"errorsSincePublish"`
	// LastBatchRejected is how many events of the most recently applied
	// batch were rejected (0 for a clean batch) — the per-batch view of
	// the rejection counters, refreshed on every batch.
	LastBatchRejected int `json:"lastBatchRejected"`
	// Serving-side counters, stamped at read time rather than publish
	// time so they are always current. IngestErrors is the lifetime
	// rejected-event count.
	Ingested     uint64              `json:"ingested"`
	IngestErrors uint64              `json:"ingestErrors"`
	Dropped      uint64              `json:"droppedBatches"`
	QueueDepth   int                 `json:"queueDepth"`
	QueueCap     int                 `json:"queueCap"`
	Backpressure string              `json:"backpressure"`
	Stats        metrics.ShardReport `json:"stats"`
	// DurabilityError surfaces a failed WAL append/commit or background
	// checkpoint on a durable engine: ingestion keeps running in memory,
	// but state changes after the failure may not survive a crash, so
	// operators should treat a non-empty value as an incident. Empty on
	// a healthy or non-durable stream.
	DurabilityError string `json:"durabilityError,omitempty"`
	// Durable position, stamped at read time on a durable engine (all
	// zero otherwise): AppliedLSN is the WAL position just past the last
	// record whose effects are in the tracker, and the live WAL retains
	// [WALOldestLSN, WALNextLSN) — the tailable range for replication and
	// the operator's "where am I" for capacity planning.
	AppliedLSN   uint64 `json:"appliedLSN,omitempty"`
	WALOldestLSN uint64 `json:"walOldestLSN,omitempty"`
	WALNextLSN   uint64 `json:"walNextLSN,omitempty"`
	// Replication is the follower-side view of this stream's tailer —
	// lag, bootstraps, reconnects. Nil on a leader or standalone engine.
	Replication *metrics.ReplReport `json:"replication,omitempty"`
	// Admission is the stream's admission-control view — configured
	// rate/burst, current token fill, accepted/limited counters. Nil
	// unless the stream has a RateLimit.
	Admission *metrics.AdmissionReport `json:"admission,omitempty"`
}

// shardOp is a mailbox message kind.
type shardOp int

const (
	opBatch shardOp = iota
	opStart
	opAdvance
	opFlush
	opCheckpoint
	opObserved
	opReplApply
)

type shardMsg struct {
	op    shardOp
	batch []Event
	tm    int64
	w     io.Writer
	coord []int
	idx   int
	val   *float64
	// lsn, when non-nil on an opCheckpoint, receives the shard's WAL
	// position at capture (0 on a non-durable engine).
	lsn *uint64
	// recs/first carry an opReplApply chunk: raw WAL record payloads
	// whose first LSN is first, shipped from the leader by a follower's
	// tailer.
	recs  [][]byte
	first uint64
	done  chan error
	// bestEffort marks a message whose sender waits with a deadline and
	// tolerates never being answered; under DropOldest it is evictable
	// like a batch, so queued bounded reads are shed before data is.
	bestEffort bool
}

// shard pairs a Tracker with its mailbox, writer goroutine, and snapshot
// publisher. After spawn only the writer goroutine touches tr and the
// writer-local fields.
type shard struct {
	eng   *Engine
	name  string
	cfg   StreamConfig
	tr    *Tracker
	mb    *engine.Mailbox[shardMsg]
	pub   engine.Publisher[Snapshot]
	stats *metrics.ShardStats
	done  <-chan struct{}
	// dur is the shard's durability attachment (nil on an in-memory
	// engine): the WAL appender plus the background checkpointer.
	dur *shardDur
	// repl, on a follower, is the stream's replication stats, installed
	// by the tailer and read wait-free by Snapshot/Metrics.
	repl atomic.Pointer[metrics.ReplStats]
	// limiter and adm are the stream's admission token bucket and its
	// decision counters — nil unless StreamConfig.RateLimit > 0. They are
	// touched on producer goroutines (PushBatch callers), never by the
	// writer: admission happens before the mailbox. The replication apply
	// path bypasses them by construction — a follower re-applies what the
	// leader already admitted.
	limiter *engine.TokenBucket
	adm     *metrics.AdmissionStats

	// Writer-local state: owned by the shard's writer goroutine, crossing
	// to readers only inside published snapshots. snsvet's writeronly
	// analyzer enforces that nothing outside a //sns:writer function
	// mutates these.

	//sns:writer-only
	sincePublish int
	//sns:writer-only
	errsSince int
	//sns:writer-only
	lastBatchRejected int
	//sns:writer-only
	lastErr string
	//sns:writer-only
	walErr error
	//sns:writer-only
	sinceCkpt int
	// modelDirty records that events were applied since the factors were
	// last copied into a snapshot; the idle republish fires only then.
	//
	//sns:writer-only
	modelDirty bool
}

// NewEngine returns an empty engine. Add streams with AddStream.
func NewEngine() *Engine {
	return &Engine{shards: make(map[string]*shard)}
}

// AddStream registers a new named stream, spawns its writer, and returns
// the stream's handle. The name must be unique and non-empty. On a
// durable engine the stream's directory (config file plus empty WAL) is
// created before the stream becomes reachable, so a crash right after
// AddStream returns recovers the stream.
func (e *Engine) AddStream(name string, cfg StreamConfig) (*Stream, error) {
	if e.follower != nil {
		return nil, fmt.Errorf("%w: streams are defined on the leader", ErrReadOnly)
	}
	if name == "" {
		return nil, fmt.Errorf("%w: stream name must be non-empty", ErrConfig)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr, err := New(cfg.Config)
	if err != nil {
		return nil, err
	}
	var sd *shardDur
	if e.dur != nil {
		// The admin lock serializes directory create/remove for a name:
		// without it two racing AddStream("x") calls could both open WAL
		// appenders over the same files before the registry rejects one.
		e.dur.mu.Lock()
		defer e.dur.mu.Unlock()
		if _, err := e.Stream(name); err == nil {
			return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
		}
		sd, err = e.dur.createStream(name, cfg)
		if err != nil {
			// Clear any partially created directory: a config file without
			// a live stream would resurrect a ghost stream on recovery.
			e.dur.removeStream(name)
			return nil, err
		}
	}
	s, err := e.addShard(name, cfg, tr, sd)
	if err != nil {
		if sd != nil {
			sd.wal.Close()
			e.dur.removeStream(name)
		}
		return nil, err
	}
	return &Stream{sh: s}, nil
}

// Stream returns a handle to the named stream. The handle pins the
// shard, so its methods skip the per-call registry lookup the name-keyed
// Engine methods pay; hold it for the lifetime of your use of the
// stream. A handle outlives RemoveStream gracefully: snapshot reads keep
// serving the last published state, while ingestion and control calls
// return ErrStreamStopped.
func (e *Engine) Stream(name string) (*Stream, error) {
	s, err := e.shard(name)
	if err != nil {
		return nil, err
	}
	return &Stream{sh: s}, nil
}

// addShard wires a tracker (fresh or restored) into the engine. sd — the
// stream's WAL and checkpointer attachment — is nil on an in-memory
// engine.
func (e *Engine) addShard(name string, cfg StreamConfig, tr *Tracker, sd *shardDur) (*shard, error) {
	s := &shard{
		eng:   e,
		name:  name,
		cfg:   cfg,
		tr:    tr,
		mb:    engine.NewMailbox(cfg.MailboxCapacity, cfg.Backpressure.policy(), func(m shardMsg) bool { return m.op == opBatch || m.bestEffort }),
		stats: metrics.NewShardStats(),
		dur:   sd,
	}
	if cfg.RateLimit > 0 {
		s.limiter = engine.NewTokenBucket(cfg.RateLimit, cfg.RateBurst)
		s.adm = &metrics.AdmissionStats{}
	}
	if sd != nil {
		sd.applied.Store(sd.wal.NextLSN())
		go sd.run()
	}
	// Fully initialize — initial snapshot, writer goroutine — before the
	// shard becomes reachable, so a concurrent Snapshot never loads a nil
	// snapshot and a concurrent Close never waits on a nil done channel.
	s.publish()
	s.done = engine.Loop(s.mb, s.handle, s.finish)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		s.stop()
		return nil, ErrEngineClosed
	}
	if _, dup := e.shards[name]; dup {
		e.mu.Unlock()
		s.stop()
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	e.shards[name] = s
	e.mu.Unlock()
	return s, nil
}

// stop shuts the shard's writer down and waits for it to drain.
func (s *shard) stop() {
	s.mb.Close()
	<-s.done
}

// RemoveStream closes a stream's mailbox, waits for its writer to drain,
// and forgets it. Held handles see ErrStreamStopped from then on; their
// snapshot reads keep serving the stream's last published state. On a
// durable engine the stream's on-disk state (WAL and checkpoints) is
// deleted — removal is permanent, not a shutdown.
func (e *Engine) RemoveStream(name string) error {
	if e.follower != nil {
		return fmt.Errorf("%w: streams are defined on the leader", ErrReadOnly)
	}
	return e.dropStream(name)
}

// dropStream is RemoveStream without the follower guard — the follower's
// reconciler uses it to retire streams the leader deleted.
func (e *Engine) dropStream(name string) error {
	if e.dur != nil {
		e.dur.mu.Lock()
		defer e.dur.mu.Unlock()
	}
	e.mu.Lock()
	s, ok := e.shards[name]
	if ok {
		delete(e.shards, name)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrStreamNotFound, name)
	}
	s.stop()
	if e.dur != nil {
		if err := e.dur.removeStream(name); err != nil {
			return fmt.Errorf("slicenstitch: remove stream %q data: %w", name, err)
		}
	}
	return nil
}

// Streams lists the registered stream names in sorted (ascending
// lexicographic) order. The ordering is part of the API contract:
// repeated calls over an unchanged engine return identical slices, so
// listings (and the HTTP GET /v1/streams endpoint built on this) are
// deterministic.
func (e *Engine) Streams() []string {
	e.mu.RLock()
	names := make([]string, 0, len(e.shards))
	for n := range e.shards {
		names = append(names, n)
	}
	e.mu.RUnlock()
	sort.Strings(names)
	return names
}

func (e *Engine) shard(name string) (*shard, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	s, ok := e.shards[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamNotFound, name)
	}
	return s, nil
}

// isClosed reports whether Close/Shutdown ran.
func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// goneErr explains a closed mailbox: the whole engine shut down, or just
// this stream was stopped.
func (s *shard) goneErr() error {
	if s.eng.isClosed() {
		return ErrEngineClosed
	}
	return fmt.Errorf("%w: %q", ErrStreamStopped, s.name)
}

// PushBatch queues events for asynchronous ingestion on the named stream.
// The engine takes ownership of the slice. Under BackpressureError a full
// mailbox returns an error wrapping ErrBackpressure; under
// BackpressureBlock a blocked put honors ctx cancellation. Per-event
// validation errors are reported via the snapshot, not here.
func (e *Engine) PushBatch(ctx context.Context, name string, events []Event) error {
	s, err := e.shard(name)
	if err != nil {
		return err
	}
	return (&Stream{sh: s}).PushBatch(ctx, events)
}

// Push queues a single event (a one-element PushBatch).
func (e *Engine) Push(ctx context.Context, name string, coord []int, value float64, tm int64) error {
	return e.PushBatch(ctx, name, []Event{{Coord: coord, Value: value, Time: tm}})
}

// control runs an op on the shard's writer goroutine and waits for its
// reply, honoring ctx both while queueing and while waiting. Control
// messages always block for mailbox space (never dropped, never rejected)
// so they stay ordered after previously queued batches. Cancellation
// abandons the wait, not the operation: a control message already queued
// is still executed by the writer.
func (s *shard) control(ctx context.Context, msg shardMsg) error {
	msg.done = make(chan error, 1) // buffered: the writer never blocks answering an abandoned op
	if err := s.mb.PutBlockingCtx(ctx, msg); err != nil {
		if err == engine.ErrClosed {
			return s.goneErr()
		}
		return err
	}
	select {
	case err := <-msg.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Start warm-starts the named stream's tracker (ALS on the window built
// from everything queued before the call) and switches it online. It
// waits for the warm start to finish.
func (e *Engine) Start(ctx context.Context, name string) error {
	s, err := e.shard(name)
	if err != nil {
		return err
	}
	return (&Stream{sh: s}).Start(ctx)
}

// AdvanceTo moves the named stream's clock forward without a tuple,
// after all previously queued batches.
func (e *Engine) AdvanceTo(ctx context.Context, name string, tm int64) error {
	s, err := e.shard(name)
	if err != nil {
		return err
	}
	return (&Stream{sh: s}).AdvanceTo(ctx, tm)
}

// Flush blocks until every batch queued before the call has been applied,
// then publishes a fresh snapshot.
func (e *Engine) Flush(ctx context.Context, name string) error {
	s, err := e.shard(name)
	if err != nil {
		return err
	}
	return s.control(ctx, shardMsg{op: opFlush})
}

// FlushAll flushes every stream, stopping at the first error (including
// ctx cancellation).
func (e *Engine) FlushAll(ctx context.Context) error {
	for _, name := range e.Streams() {
		if err := e.Flush(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the named stream's current published view, with live
// queue counters stamped in. It is wait-free with respect to the shard
// writer. Factors are current as of the writer's last idle moment and
// Fitness trails them by fewer than PublishEvery events (see Snapshot).
func (e *Engine) Snapshot(name string) (Snapshot, error) {
	s, err := e.shard(name)
	if err != nil {
		return Snapshot{}, err
	}
	return s.read(), nil
}

// Predict evaluates this snapshot's model at categorical coordinates and
// a time-mode index in [0, W). Unlike Stream.Predict — which reloads the
// latest published snapshot on every call — all Predict calls on one
// Snapshot value are answered from the same model version, which is what
// batch-serving paths need for internally consistent responses. Returns
// ErrNotStarted before the warm start and a *CoordError for invalid
// indices.
func (s *Snapshot) Predict(coord []int, timeIdx int) (float64, error) {
	if s.Factors == nil {
		return 0, ErrNotStarted
	}
	if err := checkIndex(s.Dims, s.W, coord, timeIdx); err != nil {
		return 0, err
	}
	return s.Factors.PredictAt(coord, timeIdx), nil
}

// read copies the published snapshot and stamps the live queue counters.
// The top-level counters are taken from the same Report as Stats so the
// two views of one response always agree.
func (s *shard) read() Snapshot {
	snap := *s.pub.Load() // publish happens before the shard is reachable
	snap.Stats = s.stats.Report()
	snap.Ingested = snap.Stats.Ingested
	snap.IngestErrors = snap.Stats.Errors
	snap.Dropped = s.mb.Dropped()
	snap.QueueDepth = s.mb.Len()
	snap.QueueCap = s.mb.Cap()
	// The mailbox view is mirrored into Stats so the stats sub-object of
	// one status response is self-contained (and /metrics can render from
	// a ShardReport alone).
	snap.Stats.Dropped = snap.Dropped
	snap.Stats.QueueDepth = snap.QueueDepth
	snap.Stats.QueueCap = snap.QueueCap
	snap.Backpressure = s.cfg.Backpressure.String()
	// Background-checkpointer failures are stamped at read time (the
	// checkpointer cannot publish); writer-side WAL failures arrive via
	// the published snapshot.
	if snap.DurabilityError == "" && s.dur != nil {
		if err := s.dur.ckptErr.get(); err != nil {
			snap.DurabilityError = err.Error()
		}
	}
	if s.dur != nil {
		snap.AppliedLSN = s.dur.applied.Load()
		snap.WALOldestLSN = s.dur.wal.OldestLSN()
		snap.WALNextLSN = s.dur.wal.FlushedLSN()
	}
	if rs := s.repl.Load(); rs != nil {
		r := rs.Report()
		snap.Replication = &r
	}
	snap.Admission = s.admissionReport()
	return snap
}

// admissionReport assembles the stream's admission view — counters from
// the stats recorder, configuration and live fill from the bucket — or
// nil for an unlimited stream.
func (s *shard) admissionReport() *metrics.AdmissionReport {
	if s.limiter == nil {
		return nil
	}
	r := s.adm.Report()
	r.RateLimit = s.limiter.Rate()
	r.Burst = s.limiter.Burst()
	r.Tokens = s.limiter.Fill()
	return &r
}

// Predict evaluates the named stream's published model at categorical
// coordinates and a time-mode index in [0, W). Like Snapshot it is
// wait-free and reflects the last published factors, which are current
// as of the writer's last idle moment. Before the warm start it returns
// ErrNotStarted.
func (e *Engine) Predict(name string, coord []int, timeIdx int) (float64, error) {
	s, err := e.shard(name)
	if err != nil {
		return 0, err
	}
	return (&Stream{sh: s}).Predict(coord, timeIdx)
}

// Observed returns the named stream's live window entry at categorical
// coordinates and a time-mode index. Unlike Predict it must consult the
// writer's window, so it travels through the mailbox and waits behind
// previously queued batches; bound that wait with a context deadline —
// see Stream.Observed for the full bounded-read contract
// (ErrObservedUnavailable on a full mailbox, ctx.Err() at the deadline,
// reads shed before data under DropOldest).
func (e *Engine) Observed(ctx context.Context, name string, coord []int, timeIdx int) (float64, error) {
	s, err := e.shard(name)
	if err != nil {
		return 0, err
	}
	return (&Stream{sh: s}).Observed(ctx, coord, timeIdx)
}

// Shutdown shuts every stream down: mailboxes stop accepting work,
// queued batches are drained, writers exit. It returns ctx.Err() if the
// context expires first — the writers keep draining in the background,
// but the engine is already unusable. The engine cannot be reused.
func (e *Engine) Shutdown(ctx context.Context) error {
	if e.follower != nil {
		// Stop the tailers before closing mailboxes: an in-flight apply
		// finishes (the writers are still draining), new ones stop coming.
		e.follower.stop()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	shards := make([]*shard, 0, len(e.shards))
	for _, s := range e.shards {
		shards = append(shards, s)
	}
	e.shards = map[string]*shard{}
	e.mu.Unlock()
	for _, s := range shards {
		s.mb.Close()
	}
	for _, s := range shards {
		select {
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Close is Shutdown without a deadline: it waits for every writer to
// drain. Idempotent.
//
//lint:ignore ctxfirst Close satisfies io.Closer, which has no context; Shutdown is the context-first form
func (e *Engine) Close() error { return e.Shutdown(context.Background()) }

// handleBatch is the data-plane path of the writer loop: one mailbox
// batch logged, applied, and accounted. Split from handle so the 0-alloc
// contract is scoped to the path that runs per batch, not the per-stream
// control ops.
//
//sns:hotpath
//sns:writer
func (s *shard) handleBatch(msg shardMsg) {
	if s.dur != nil {
		// Timed so the /metrics WAL-append histogram reflects what the
		// hot path actually pays (buffer encode + copy, occasionally a
		// flush); two clock reads and a histogram record, 0 allocs.
		walStart := time.Now()
		s.logBatch(msg.batch)
		s.dur.walStats.Append.Record(time.Since(walStart))
	}
	// The batch fast path: one Tracker.PushBatch call validates and
	// applies the whole batch — no per-event closure, coord copy, or
	// repeated dispatch — and is allocation-free in steady state.
	start := time.Now()
	applied, err := s.tr.PushBatch(msg.batch)
	s.stats.RecordBatch(applied, time.Since(start))
	errs := countRejects(err)
	s.lastBatchRejected = errs
	if errs > 0 {
		s.stats.RecordErrors(errs)
		s.errsSince += errs
		s.lastErr = lastReject(err).Error()
	}
	s.maybeCommit()
	s.noteApplied()
	//lint:ignore hotpath amortized: one checkpoint serialization per CheckpointEvery applied events
	s.maybeCheckpoint(applied)
	// Only applied events advance the publish clock: a stream of
	// rejected events must not trigger the O(nnz) fitness recompute.
	s.sincePublish += applied
	if applied > 0 {
		s.modelDirty = true
	}
	if s.sincePublish >= s.cfg.PublishEvery {
		//lint:ignore hotpath amortized: one snapshot allocation per PublishEvery applied events
		s.publish()
	} else if errs > 0 || s.pub.Load().LastBatchRejected != errs {
		// No model publish is due, but the error state must still
		// surface — otherwise a stream whose events are all rejected
		// would never report LastError at all, and a clean batch after
		// a bad one would keep advertising the stale LastBatchRejected
		// until the next full publish. O(1): model fields are
		// inherited.
		s.publishErrState()
	}
}

// handle runs on the shard's writer goroutine — the only place s.tr is
// touched after spawn.
//
// On a durable engine every state-changing message is appended to the
// shard's WAL before it is applied (write-ahead with respect to both the
// tracker and any checkpoint capture, which also happen on this
// goroutine). The append goes into a writer-owned buffer — no lock, no
// syscall, no allocation in steady state — and reaches the OS at group-
// commit points: when the mailbox runs dry (end of a drain burst) and
// before any control acknowledgement, with fsync per the configured
// policy.
//
// After every message the writer republishes the model if it has gone
// idle (see maybePublishIdle), before answering a control message, so a
// reply implies everything applied so far is visible to readers.
//
//sns:writer
func (s *shard) handle(msg shardMsg) {
	var err error
	switch msg.op {
	case opBatch:
		s.handleBatch(msg)
	case opStart:
		s.logRecord([]byte{recStart})
		err = s.tr.Start()
		s.commit()
		s.noteApplied()
		if err == nil {
			s.publish()
		}
	case opAdvance:
		if s.dur != nil {
			s.logRecord(appendZigzag(append(s.dur.buf[:0], recAdvance), msg.tm))
		}
		err = s.tr.AdvanceTo(msg.tm)
		s.commit()
		s.noteApplied()
		if err == nil {
			s.publish()
		} else {
			// Surfaced synchronously to the caller; not counted in
			// ErrorsSincePublish, which tracks rejected *events* only.
			s.lastErr = err.Error()
		}
	case opFlush:
		// Flush doubles as the durability barrier: everything applied so
		// far is forced to stable storage regardless of fsync policy, and
		// a failed (or already-latched-broken) barrier is an error — a
		// nil reply here is a durability promise.
		if s.dur != nil && !s.dur.crashed.Load() {
			if s.walErr == nil {
				if serr := s.dur.wal.Sync(); serr != nil {
					s.walErr = serr
				}
			}
			if s.walErr != nil {
				err = fmt.Errorf("%w: %v", ErrDurability, s.walErr)
			}
		}
		s.publish()
	case opCheckpoint:
		if msg.lsn != nil {
			*msg.lsn = s.nextLSN()
		}
		err = s.tr.Checkpoint(msg.w)
	case opObserved:
		*msg.val, err = s.tr.Observed(msg.coord, msg.idx)
	case opReplApply:
		err = s.applyRepl(msg.first, msg.recs)
	}
	s.maybePublishIdle()
	if msg.done != nil {
		msg.done <- err
	}
}

// maybePublishIdle republishes a started stream's counts and factors when
// the writer has gone idle — its mailbox ran dry, the same point where it
// group-commits the WAL — and events were applied since the factors were
// last copied. It runs after every message, not only after batches:
// control messages such as a predict reader's Observed arrive mid-burst
// and would otherwise keep the mailbox non-empty at the batch ends.
// Fitness is inherited, so the O(nnz) recomputation stays on the
// PublishEvery cadence; what an idle moment pays is the counts plus one
// factor copy.
//
//sns:hotpath
//sns:writer
func (s *shard) maybePublishIdle() {
	if !s.modelDirty || !s.tr.Started() || s.mb.Len() > 0 {
		return
	}
	//lint:ignore hotpath amortized: at most one snapshot (a factor copy, no fitness) per drain burst
	s.publishIdle()
}

// applyRepl appends and applies one replication chunk — raw WAL record
// payloads shipped from the leader. Each record is applied through the
// same decode path recovery uses and appended byte-for-byte to the local
// WAL, so a restarted follower replays to the identical state and
// checkpoint bytes stay a pure function of (leader history, LSN): the
// bit-identity guarantee. The chunk must abut the local WAL exactly;
// anything else is a gap the tailer answers by re-bootstrapping.
//
//sns:writer
func (s *shard) applyRepl(first uint64, recs [][]byte) error {
	if s.dur == nil {
		return fmt.Errorf("%w: replication requires a durable stream", ErrConfig)
	}
	if s.walErr != nil {
		return fmt.Errorf("%w: %v", ErrDurability, s.walErr)
	}
	if got := s.dur.wal.NextLSN(); got != first {
		return fmt.Errorf("%w: chunk starts at LSN %d, local WAL at %d", ErrWALGap, first, got)
	}
	applied := 0
	forcePublish := false
	start := time.Now()
	for _, rec := range recs {
		// Decode-and-apply before append: a record the apply path rejects
		// as malformed must never enter the local WAL, where it would
		// poison recovery. The reverse crash window (applied in memory,
		// not yet appended) is safe — the tracker state is volatile and
		// the tailer resumes from the flushed WAL position.
		n, err := applyRecord(s.tr, rec)
		if err != nil {
			s.commit()
			return err
		}
		applied += n
		if n > 0 {
			s.modelDirty = true
		}
		// Start/advance records publish unconditionally on the leader
		// (they change Started/window state without counting as events),
		// so the replica must republish too or its snapshot goes stale.
		if rec[0] != recBatch {
			forcePublish = true
		}
		s.logRecord(rec)
		if s.walErr != nil {
			break
		}
	}
	s.commit()
	s.stats.RecordBatch(applied, time.Since(start))
	if s.walErr != nil {
		return fmt.Errorf("%w: %v", ErrDurability, s.walErr)
	}
	s.noteApplied()
	s.maybeCheckpoint(applied)
	s.sincePublish += applied
	if forcePublish || s.sincePublish >= s.cfg.PublishEvery {
		s.publish()
	}
	return nil
}

// noteApplied mirrors the WAL position just past the last applied record
// into the shard's atomic, where Snapshot and the replication protocol
// read it wait-free.
//
//sns:writer
func (s *shard) noteApplied() {
	if s.dur != nil {
		s.dur.applied.Store(s.dur.wal.NextLSN())
	}
}

// nextLSN returns the shard's WAL position (0 when not durable). Writer
// goroutine only.
//
//sns:writer
func (s *shard) nextLSN() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.wal.NextLSN()
}

// logBatch appends a batch record of the events the tracker will accept,
// encoding into the shard's reusable scratch. Validating before logging
// keeps a stale, out-of-range or non-finite event out of the WAL, so it
// is never shipped to followers or re-rejected on replay. A batch with no
// rejection is encoded as is. An all-rejected batch still logs an empty
// record, so every state-changing message keeps exactly one LSN. Writer
// goroutine only; no-op when not durable.
//
//sns:writer
func (s *shard) logBatch(events []Event) {
	if s.dur == nil {
		return
	}
	accepted := s.tr.acceptedEvents(s.dur.accepted, events)
	if len(accepted) < len(events) {
		s.dur.accepted = accepted[:0] // keep the grown scratch
	}
	s.dur.buf = encodeBatchRecord(s.dur.buf, accepted)
	s.logRecord(s.dur.buf)
}

// durActive reports whether the shard should keep touching its WAL:
// durability configured, no latched failure, and no simulated crash in
// progress (the crash flag freezes the on-disk state mid-flight, which
// is the whole point of the simulation).
func (s *shard) durActive() bool {
	return s.dur != nil && s.walErr == nil && !s.dur.crashed.Load()
}

// logRecord appends one encoded record, latching the first failure:
// after a WAL error the shard keeps serving from memory but stops
// appending (the log's tail position no longer matches the applied
// state), and the error is surfaced via Snapshot.DurabilityError.
//
//sns:writer
func (s *shard) logRecord(payload []byte) {
	if !s.durActive() {
		return
	}
	if _, err := s.dur.wal.Append(payload); err != nil {
		s.walErr = err
		s.publishErrState()
	}
}

// maybeCommit group-commits at the end of a mailbox drain burst — and
// also mid-burst whenever the fsync policy says a sync is due, so a
// sustained backlog (mailbox never empty) cannot starve durability:
// under FsyncAlways every batch still commits, and under FsyncInterval
// the interval clock keeps firing even while producers outrun the drain.
//
//sns:writer
func (s *shard) maybeCommit() {
	if !s.durActive() {
		return
	}
	if s.mb.Len() > 0 && !s.dur.wal.SyncDue() {
		return
	}
	s.commit()
}

// commit group-commits before a control acknowledgement, so a successful
// Start/AdvanceTo reply implies the operation (and everything before it)
// has reached the OS — and stable storage under FsyncAlways.
//
//sns:writer
func (s *shard) commit() {
	if !s.durActive() {
		return
	}
	if err := s.dur.wal.Commit(); err != nil {
		s.walErr = err
		s.publishErrState()
	}
}

// maybeCheckpoint captures a background checkpoint once enough events
// have been applied since the last one. The capture — serializing the
// tracker into a fresh buffer, stamped with the WAL position — runs on
// the writer goroutine so it is trivially consistent; the expensive part
// (fsync, rename, WAL truncation) happens on the shard's checkpointer
// goroutine. A busy checkpointer skips the capture and retries after the
// next batch rather than stalling ingestion.
//
//sns:writer
func (s *shard) maybeCheckpoint(applied int) {
	if s.dur == nil {
		return
	}
	s.sinceCkpt += applied
	if s.sinceCkpt < s.dur.opts.CheckpointEvery || !s.durActive() {
		return
	}
	var buf bytes.Buffer
	if err := s.tr.Checkpoint(&buf); err != nil {
		s.dur.ckptErr.set(err)
		s.sinceCkpt = 0
		return
	}
	select {
	case s.dur.ckptC <- ckptReq{lsn: s.dur.wal.NextLSN(), data: buf.Bytes()}:
		s.sinceCkpt = 0
	default:
		// Checkpointer still busy with the previous capture; retry later.
	}
}

// finish runs on the writer goroutine after the mailbox drains: it
// publishes the final snapshot and tears down the durability attachment.
// A clean shutdown captures one last checkpoint first — restart then
// recovers from the checkpoint alone instead of replaying the WAL tail —
// and closes the checkpointer (which may still truncate) before the WAL
// is flushed, synced, and closed. A simulated crash abandons everything
// instead.
//
//sns:writer
func (s *shard) finish() {
	s.publish()
	// Release the tracker's row-solve pool (if any) before durability
	// teardown: the writer goroutine is done applying events, so no
	// solve can be in flight.
	s.tr.Close()
	if s.dur == nil {
		return
	}
	if s.durActive() && s.sinceCkpt > 0 {
		var buf bytes.Buffer
		if err := s.tr.Checkpoint(&buf); err == nil {
			// Blocking send: the checkpointer is alive until ckptC closes,
			// so a pending capture just delays shutdown by one write.
			s.dur.ckptC <- ckptReq{lsn: s.dur.wal.NextLSN(), data: buf.Bytes()}
		}
	}
	close(s.dur.ckptC)
	<-s.dur.ckptDone
	if s.dur.crashed.Load() {
		s.dur.wal.Abandon()
		return
	}
	if err := s.dur.wal.Close(); err != nil && s.walErr == nil {
		s.walErr = err
		s.publishErrState()
	}
}

// publish builds and installs a fresh immutable snapshot. Called from the
// writer goroutine (and once from addShard before the writer starts). The
// per-interval error state (LastError, ErrorsSincePublish) is stamped into
// the snapshot and then reset, so errors age out after one interval
// instead of sticking forever.
//
//sns:writer
func (s *shard) publish() {
	t := s.tr
	snap := &Snapshot{
		Stream:             s.name,
		Now:                t.Now(),
		Started:            t.Started(),
		Events:             t.Events(),
		NNZ:                t.NNZ(),
		Algorithm:          t.AlgorithmName(),
		Params:             t.ParamCount(),
		Dims:               s.cfg.Dims,
		W:                  s.cfg.W,
		Period:             s.cfg.Period,
		LastError:          s.lastErr,
		ErrorsSincePublish: uint64(s.errsSince),
		LastBatchRejected:  s.lastBatchRejected,
		DurabilityError:    s.durErrString(),
	}
	if t.Started() {
		snap.Fitness = t.Fitness()
		snap.Factors = t.Factors()
	}
	s.pub.Publish(snap)
	s.stats.RecordPublish()
	s.sincePublish = 0
	s.errsSince = 0
	s.lastErr = ""
	s.modelDirty = false
}

// publishIdle is the cheap model publish of an idle writer: fresh counts
// and a fresh factor copy, with Fitness inherited from the last full
// publish. It counts as a publish (Stats.Publishes, the publish-lag clock)
// but leaves the fitness cadence (sincePublish) and the per-interval
// error state alone — only a full publish recomputes the one and closes
// the other.
//
//sns:writer
func (s *shard) publishIdle() {
	snap := s.refreshed()
	snap.Factors = s.tr.Factors()
	s.pub.Publish(snap)
	s.stats.RecordPublish()
	s.modelDirty = false
}

// publishErrState refreshes the published snapshot's cheap fields and
// error state without recomputing fitness or re-copying factors (both are
// inherited from the previous snapshot, which is immutable and shared).
// It neither counts as a model publish nor resets the per-interval error
// state — a subsequent full publish still closes the interval.
//
//sns:writer
func (s *shard) publishErrState() { s.pub.Publish(s.refreshed()) }

// refreshed copies the published snapshot with its clock, counts and
// error state brought up to date; the model fields are inherited.
//
//sns:writer
func (s *shard) refreshed() *Snapshot {
	snap := *s.pub.Load()
	snap.Now = s.tr.Now()
	snap.Events = s.tr.Events()
	snap.NNZ = s.tr.NNZ()
	snap.LastError = s.lastErr
	snap.ErrorsSincePublish = uint64(s.errsSince)
	snap.LastBatchRejected = s.lastBatchRejected
	snap.DurabilityError = s.durErrString()
	return &snap
}

// durErrString folds the writer-latched WAL error and the background
// checkpointer's latest error into the snapshot field. Writer goroutine
// only (the checkpointer side is read through its own mutex).
//
//sns:writer
func (s *shard) durErrString() string {
	if s.walErr != nil {
		return s.walErr.Error()
	}
	if s.dur != nil {
		if err := s.dur.ckptErr.get(); err != nil {
			return err.Error()
		}
	}
	return ""
}

// Predict evaluates the CP model held in a Factors snapshot at a full
// index (categorical modes first, time mode last). Out-of-range indices
// are the caller's responsibility.
func (f *Factors) Predict(idx []int) float64 {
	if f == nil || len(idx) != len(f.Matrices) {
		return 0
	}
	total := 0.0
	for r := range f.Lambda {
		p := f.Lambda[r]
		for m, i := range idx {
			p *= f.Matrices[m][i][r]
		}
		total += p
	}
	return total
}

// PredictAt evaluates the model at categorical coordinates plus a
// time-mode index without materializing the full index — the
// allocation-free form concurrent read paths use. Out-of-range indices
// are the caller's responsibility.
func (f *Factors) PredictAt(coord []int, timeIdx int) float64 {
	if f == nil || len(coord)+1 != len(f.Matrices) {
		return 0
	}
	timeRows := f.Matrices[len(f.Matrices)-1]
	total := 0.0
	for r := range f.Lambda {
		p := f.Lambda[r] * timeRows[timeIdx][r]
		for m, i := range coord {
			p *= f.Matrices[m][i][r]
		}
		total += p
	}
	return total
}
