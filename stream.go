package slicenstitch

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"slicenstitch/internal/engine"
)

// Stream is a handle to one engine stream. It pins the stream's shard at
// construction (AddStream / Engine.Stream), so every method goes straight
// to the shard's mailbox or published snapshot with zero registry
// lookups — the per-call mutex-guarded map access of the name-keyed
// Engine methods is paid once, when the handle is made. Handles are cheap
// value wrappers; hold one per stream for the lifetime of your use.
//
// Concurrency: a Stream is safe for concurrent use by any number of
// goroutines, exactly like the Engine methods it replaces.
//
// Lifetime and revocation: a handle is never invalidated in place. After
// RemoveStream (or engine Shutdown) the shard's mailbox is closed, so
// ingestion and control methods return ErrStreamStopped (ErrEngineClosed
// once the whole engine is down), while Snapshot and Predict keep
// serving the stream's last published state. Check Stopped to poll the
// state explicitly.
//
// Replication: on a follower engine (Options.Follower) the write methods
// — PushBatch, Push, Start, AdvanceTo — return ErrReadOnly; reads,
// Flush, Observed, and Checkpoint work normally against the replicated
// state.
//
// Context semantics: every method that can block — PushBatch and Push
// under BackpressureBlock, and all control operations (Start, AdvanceTo,
// Flush, Observed) — takes a context.Context and returns ctx.Err() when
// it is cancelled while queueing or waiting. Cancellation abandons the
// caller's wait, not the operation: a control message already queued is
// still executed by the writer. Wait-free reads (Snapshot, Predict) take
// no context.
type Stream struct {
	sh *shard
}

// Name returns the stream's registered name.
func (st *Stream) Name() string { return st.sh.name }

// Config returns the stream's effective configuration (defaults applied).
func (st *Stream) Config() StreamConfig { return st.sh.cfg }

// Stopped reports whether the stream was removed from its engine (or the
// engine shut down). A stopped stream still serves Snapshot and Predict
// from its last published state.
func (st *Stream) Stopped() bool { return st.sh.mb.Closed() }

// PushBatch queues events for asynchronous ingestion. The engine takes
// ownership of the slice; don't mutate it afterwards. Under
// BackpressureError a full mailbox returns an error wrapping
// ErrBackpressure; under BackpressureBlock a blocked put unblocks with
// ctx.Err() on cancellation. On a stream with a RateLimit, a batch the
// token bucket cannot admit is refused whole — before the mailbox —
// with a *RateLimitError (wrapping ErrRateLimited) carrying the retry
// wait. Per-event validation errors surface in the snapshot (LastError,
// LastBatchRejected, IngestErrors), not here. The steady-state path is
// allocation-free.
func (st *Stream) PushBatch(ctx context.Context, events []Event) error {
	if st.sh.eng.follower != nil {
		return fmt.Errorf("%w: ingest on %q", ErrReadOnly, st.sh.name)
	}
	if len(events) == 0 {
		return nil
	}
	if lim := st.sh.limiter; lim != nil {
		if ok, retry := lim.Take(float64(len(events))); !ok {
			st.sh.adm.RecordLimited(len(events))
			return &RateLimitError{Stream: st.sh.name, RetryAfter: retry}
		}
		st.sh.adm.RecordAccept(len(events))
	}
	switch err := st.sh.mb.PutCtx(ctx, shardMsg{op: opBatch, batch: events}); err {
	case nil:
		return nil
	case engine.ErrFull:
		return fmt.Errorf("%w: stream %q", ErrBackpressure, st.sh.name)
	case engine.ErrClosed:
		return st.sh.goneErr()
	default:
		return err
	}
}

// Push queues a single event (a one-element PushBatch).
func (st *Stream) Push(ctx context.Context, coord []int, value float64, tm int64) error {
	return st.PushBatch(ctx, []Event{{Coord: coord, Value: value, Time: tm}})
}

// Start warm-starts the stream's tracker (ALS on the window built from
// everything queued before the call) and switches it online. It waits
// for the warm start to finish; a second Start returns
// ErrAlreadyStarted.
func (st *Stream) Start(ctx context.Context) error {
	if st.sh.eng.follower != nil {
		return fmt.Errorf("%w: Start on %q (the leader starts streams; the replica replays it)", ErrReadOnly, st.sh.name)
	}
	return st.sh.control(ctx, shardMsg{op: opStart})
}

// AdvanceTo moves the stream's clock forward without a tuple, after all
// previously queued batches. A timestamp behind the stream clock returns
// an error wrapping ErrStaleTimestamp.
func (st *Stream) AdvanceTo(ctx context.Context, tm int64) error {
	if st.sh.eng.follower != nil {
		return fmt.Errorf("%w: AdvanceTo on %q", ErrReadOnly, st.sh.name)
	}
	return st.sh.control(ctx, shardMsg{op: opAdvance, tm: tm})
}

// Flush blocks until every batch queued before the call has been
// applied, then publishes a fresh snapshot.
func (st *Stream) Flush(ctx context.Context) error {
	return st.sh.control(ctx, shardMsg{op: opFlush})
}

// Snapshot returns the stream's current published view with live queue
// counters stamped in — wait-free with respect to the shard writer.
// Factors are current as of the writer's last idle moment and Fitness
// trails them by fewer than PublishEvery events (see Snapshot). It keeps working after the stream is stopped, serving the last
// published state.
func (st *Stream) Snapshot() Snapshot { return st.sh.read() }

// Predict evaluates the latest published model at categorical
// coordinates and a time-mode index in [0, W). Wait-free; returns
// ErrNotStarted before the warm start and a *CoordError for invalid
// indices. For many predictions against one consistent model version,
// take a Snapshot once and use Snapshot.Predict.
func (st *Stream) Predict(coord []int, timeIdx int) (float64, error) {
	return st.sh.pub.Load().Predict(coord, timeIdx)
}

// Observed returns the live window entry at categorical coordinates and
// a time-mode index (0 when absent). Unlike Predict it must consult the
// writer's window, so the query travels through the mailbox and waits
// behind previously queued batches — under a backlog that wait can be
// long, so latency-sensitive callers should bound it with a context
// deadline.
//
// Deadline-bounded reads are second-class mailbox citizens by design:
// when ctx carries a deadline the query never blocks for mailbox space,
// always leaves at least one free slot for producers (a full mailbox
// returns ErrObservedUnavailable immediately), and is itself evictable
// under BackpressureDropOldest — so sustained bounded reads against a
// backlogged shard can neither stall nor starve ingestion, and an
// evicted or unanswered query returns ctx.Err() at the deadline. Without
// a deadline the query is a normal control message: it blocks for space
// (cancellably), is never dropped, and is always answered. Either way
// the observation should be treated as unavailable rather than stale on
// error, and the engine briefly retains coord until the writer answers
// (even if the caller has given up), so callers must not mutate it
// afterwards.
func (st *Stream) Observed(ctx context.Context, coord []int, timeIdx int) (float64, error) {
	// Fail fast on bad indices without involving the writer.
	snap := st.sh.pub.Load()
	if err := checkIndex(snap.Dims, snap.W, coord, timeIdx); err != nil {
		return 0, err
	}
	// val lives on the heap: if ctx expires first, the writer still
	// stores the answer into it later, unobserved — never into a stack
	// frame that has been reused.
	val := new(float64)
	msg := shardMsg{op: opObserved, coord: coord, idx: timeIdx, val: val}
	if _, bounded := ctx.Deadline(); !bounded {
		if err := st.sh.control(ctx, msg); err != nil {
			return 0, err
		}
		return *val, nil
	}
	// Bounded read: shed rather than stall. The deadline guarantees the
	// wait below terminates even if the queued query is evicted.
	msg.done = make(chan error, 1) // buffered: the writer never blocks answering an abandoned query
	msg.bestEffort = true
	switch err := st.sh.mb.TryPut(msg, 1); err {
	case nil:
	case engine.ErrFull:
		return 0, fmt.Errorf("%w: stream %q", ErrObservedUnavailable, st.sh.name)
	case engine.ErrClosed:
		return 0, st.sh.goneErr()
	default:
		return 0, err
	}
	select {
	case err := <-msg.done:
		if err != nil {
			return 0, err
		}
		return *val, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Checkpoint serializes the stream's tracker state on its writer
// goroutine, after all batches queued before the call; Restore reads it
// back. The state is staged in an engine-owned buffer and copied to w
// only on success, so a cancelled call never touches w afterwards — w
// needs no special lifetime.
func (st *Stream) Checkpoint(ctx context.Context, w io.Writer) error {
	// The writer goroutine encodes into buf; if ctx expires first the
	// abandoned op writes into the abandoned buffer, never into w.
	var buf bytes.Buffer
	if err := st.sh.control(ctx, shardMsg{op: opCheckpoint, w: &buf}); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}
