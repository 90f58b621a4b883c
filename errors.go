package slicenstitch

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// This file is the package's complete error taxonomy. Every error a
// Tracker, Engine, or Stream returns either IS one of the sentinels
// below, WRAPS one (matchable with errors.Is), or is one of the
// structured types (matchable with errors.As) — so callers branch on
// values, never on error strings. The HTTP layer in cmd/snsserve maps the
// same taxonomy onto its uniform JSON error envelope.
var (
	// ErrStreamNotFound reports a stream name with no registered stream.
	ErrStreamNotFound = errors.New("slicenstitch: stream not found")

	// ErrStreamStopped reports an operation on a stream that was removed
	// (or whose engine shut down mid-operation) after the caller obtained
	// its handle. Reads of the last published snapshot keep working on a
	// stopped handle; ingestion and control operations return this.
	ErrStreamStopped = errors.New("slicenstitch: stream stopped")

	// ErrNotStarted reports a model read (Predict, Factors over HTTP)
	// before the warm start brought the stream online.
	ErrNotStarted = errors.New("slicenstitch: not started")

	// ErrAlreadyStarted reports a second Start on the same tracker or
	// stream.
	ErrAlreadyStarted = errors.New("slicenstitch: already started")

	// ErrBackpressure reports a full mailbox under BackpressureError.
	ErrBackpressure = errors.New("slicenstitch: stream mailbox full")

	// ErrStaleTimestamp reports an event or advance whose timestamp
	// precedes the stream's current time. Tuples must arrive in
	// chronological order.
	ErrStaleTimestamp = errors.New("slicenstitch: timestamp precedes stream time")

	// ErrBadValue reports an event value that is NaN, ±Inf, or so large
	// (|v| > √MaxFloat64) that its square overflows. Such a value would
	// permanently corrupt the maintained ‖X‖² and the factor matrices, so
	// it is rejected before it reaches the window.
	ErrBadValue = errors.New("slicenstitch: event value not finite or too large")

	// ErrObservedUnavailable reports that a deadline-bounded Observed
	// read was shed because the stream's mailbox is full: bounded reads
	// never queue behind a backlog or take the slots producers need.
	// Treat the observation as unavailable rather than stale and retry
	// later.
	ErrObservedUnavailable = errors.New("slicenstitch: observation unavailable (stream backlogged)")

	// ErrEngineClosed reports use of an engine after Close/Shutdown.
	ErrEngineClosed = errors.New("slicenstitch: engine closed")

	// ErrDurability reports that a durable stream's write-ahead log or
	// checkpointing failed: the stream keeps serving from memory, but
	// state changes since the failure may not survive a crash. Flush —
	// the explicit durability barrier — returns an error wrapping this
	// sentinel instead of claiming success; the latched condition also
	// surfaces in Snapshot.DurabilityError.
	ErrDurability = errors.New("slicenstitch: durability failure")

	// ErrConfig reports an invalid configuration: a Config, StreamConfig,
	// or DurabilityOptions field out of range, an unknown algorithm or
	// policy name, or a malformed argument (empty stream name). The
	// wrapped message names the offending field.
	ErrConfig = errors.New("slicenstitch: invalid config")

	// ErrStreamExists reports AddStream with a name that is already
	// registered (or whose durability directory already exists).
	ErrStreamExists = errors.New("slicenstitch: stream already exists")

	// ErrCorruptCheckpoint reports durable state on disk — a checkpoint,
	// an engine manifest, or a config sidecar frame — that fails
	// validation on restore: bad checksum, truncated frame, unsupported
	// version, or a model shape that contradicts its config.
	ErrCorruptCheckpoint = errors.New("slicenstitch: corrupt checkpoint")

	// ErrReadOnly reports a write — ingest, Start/AdvanceTo, stream
	// add/remove — on a follower engine. Replicas apply the leader's WAL
	// and serve reads; the single writer for every stream is the leader.
	ErrReadOnly = errors.New("slicenstitch: engine is a read-only follower")

	// ErrWALGap reports a WAL position that is no longer (or not yet)
	// available: a TailWAL read below the oldest record the leader still
	// retains — the follower fell behind a post-checkpoint truncation and
	// must re-bootstrap — or a replication apply whose chunk does not
	// abut the local WAL's next LSN.
	ErrWALGap = errors.New("slicenstitch: wal position not available")

	// ErrCorruptWAL reports a write-ahead-log record that fails to decode
	// during recovery: a malformed frame the original writer could never
	// have produced. Torn tails are not corruption — recovery truncates
	// them silently; this sentinel means bytes inside the valid prefix
	// are wrong.
	ErrCorruptWAL = errors.New("slicenstitch: corrupt wal record")

	// ErrRateLimited reports a batch refused by a stream's admission
	// token bucket (StreamConfig.RateLimit): offered load exceeds the
	// configured rate and the events were rejected before reaching the
	// mailbox. Unlike ErrBackpressure — the mailbox itself is full — a
	// rate-limited push is refused instantly and carries a retry hint:
	// errors.As to *RateLimitError for the wait.
	ErrRateLimited = errors.New("slicenstitch: rate limited")
)

// RateLimitError reports a PushBatch refused by the stream's admission
// token bucket, carrying how long the caller should wait before the
// bucket could admit the batch. It wraps ErrRateLimited (errors.Is) and
// is matchable with errors.As; the HTTP layer maps it to 429 with a
// Retry-After header.
type RateLimitError struct {
	// Stream is the refusing stream's name.
	Stream string
	// RetryAfter is the minimum wait before a retry could be admitted.
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("slicenstitch: rate limited: stream %q (retry after %v)", e.Stream, e.RetryAfter)
}

// Unwrap exposes ErrRateLimited to errors.Is.
func (e *RateLimitError) Unwrap() error { return ErrRateLimited }

// CoordError reports an invalid coordinate or time-mode index: wrong
// arity, an out-of-range categorical index, or an out-of-range time index.
// It is returned (possibly wrapped in a *RejectError) by every validation
// path — Push, PushBatch, Predict, Observed — and matchable with
// errors.As.
type CoordError struct {
	// Mode is the offending categorical mode, or -1 for arity and
	// time-index errors (see Time).
	Mode int
	// Time is true when the time-mode index was out of range.
	Time bool
	// Got is the offending index — or, for arity errors, the number of
	// indices supplied.
	Got int
	// Limit is the exclusive valid bound: the mode size, the window
	// length W for time indices, or the required arity.
	Limit int
}

func (e *CoordError) Error() string {
	switch {
	case e.Time:
		return fmt.Sprintf("slicenstitch: timeIdx %d out of range [0,%d)", e.Got, e.Limit)
	case e.Mode < 0:
		return fmt.Sprintf("slicenstitch: coord has %d indices, want %d", e.Got, e.Limit)
	default:
		return fmt.Sprintf("slicenstitch: coord[%d] = %d out of range [0,%d)", e.Mode, e.Got, e.Limit)
	}
}

// RejectError reports one rejected event of a batch, carrying the event's
// position so callers can retry or discard exactly the failed entries.
// Tracker.PushBatch joins all rejections of a batch with errors.Join, so
// errors.As finds the first and a type switch over
// err.(interface{ Unwrap() []error }) walks them all.
type RejectError struct {
	// Index is the event's position in the batch passed to PushBatch.
	Index int
	// Err is the cause: a *CoordError or an ErrStaleTimestamp wrap.
	Err error
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("slicenstitch: event %d rejected: %v", e.Index, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RejectError) Unwrap() error { return e.Err }

// staleErr builds the standard chronological-order violation, wrapping
// ErrStaleTimestamp with the concrete times.
func staleErr(tm, now int64) error {
	return fmt.Errorf("%w: %d < %d", ErrStaleTimestamp, tm, now)
}

// maxEventValue is the largest event magnitude accepted: the square of
// anything larger overflows float64, and ‖X‖² is maintained by adding
// squares.
var maxEventValue = math.Sqrt(math.MaxFloat64)

// checkValue rejects an event value that is NaN, ±Inf, or whose square
// overflows, wrapping ErrBadValue.
func checkValue(v float64) error {
	if !(math.Abs(v) <= maxEventValue) { // also true for NaN
		return fmt.Errorf("%w: %v", ErrBadValue, v)
	}
	return nil
}

// rejects collects the per-event failures of one batch. A nil slice joins
// to a nil error, so the accept path pays nothing.
type rejects []error

func (r rejects) join() error { return errors.Join(r...) }

// lastReject returns the most recent *RejectError inside a joined batch
// error (or err itself when it is not a join) — the engine's snapshot
// reports it as LastError so operators see the latest failure, not an
// ever-growing join string.
func lastReject(err error) error {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		if errs := u.Unwrap(); len(errs) > 0 {
			return errs[len(errs)-1]
		}
	}
	return err
}

// countRejects returns how many individual rejections a PushBatch error
// carries (1 for a bare error, 0 for nil).
func countRejects(err error) int {
	if err == nil {
		return 0
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return len(u.Unwrap())
	}
	return 1
}
