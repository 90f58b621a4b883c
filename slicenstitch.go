// Package slicenstitch is a from-scratch Go implementation of
// SliceNStitch: continuous CANDECOMP/PARAFAC (CP) decomposition of sparse
// tensor streams (Kwon, Park, Lee, Shin — ICDE 2021, arXiv:2102.11517).
//
// A Tracker models a multi-aspect data stream (timestamped tuples of
// categorical coordinates and a value) as a tensor window under the paper's
// continuous tensor model, and keeps a rank-R CP factorization of that
// window up to date on every single event — arrivals, unit-boundary shifts,
// and expirations — rather than once per period as conventional streaming
// CPD does.
//
// Typical use:
//
//	tr, _ := slicenstitch.New(slicenstitch.Config{
//		Dims:   []int{265, 265}, // e.g. taxi zones
//		W:      10,              // window length in tensor units
//		Period: 3600,            // unit length in stream time (1 hour)
//		Rank:   20,
//	})
//	for ev := range events {
//		tr.Push(ev.Coord, ev.Value, ev.Time) // fills the initial window …
//	}
//	tr.Start()                               // … ALS warm start, go online
//	for ev := range more {
//		tr.Push(ev.Coord, ev.Value, ev.Time) // every push updates factors
//	}
//	fmt.Println(tr.Fitness())
//
// The five update algorithms of the paper are selectable via
// Config.Algorithm; SNSRndPlus (the paper's recommended fast variant) is
// the default. See DESIGN.md and EXPERIMENTS.md for the faithful-
// reproduction details and internal/experiments for the harness that
// regenerates every table and figure of the paper's evaluation.
package slicenstitch

import (
	"fmt"
	"time"

	"slicenstitch/internal/als"
	"slicenstitch/internal/core"
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/window"
)

// Algorithm selects one of the paper's five update rules.
type Algorithm string

// The five SliceNStitch variants (Section V of the paper).
const (
	// SNSMat is Algorithm 2: one full ALS sweep per event. Most accurate,
	// slowest.
	SNSMat Algorithm = "SNS-Mat"
	// SNSVec updates only the affected factor rows by least squares.
	// Fast, but numerically unstable on some streams (kept for fidelity;
	// prefer SNSVecPlus).
	SNSVec Algorithm = "SNS-Vec"
	// SNSRnd is SNSVec with θ-sampling for high-degree rows: constant-time
	// updates, same instability caveat.
	SNSRnd Algorithm = "SNS-Rnd"
	// SNSVecPlus is the stable coordinate-descent variant of SNSVec with
	// entry clipping.
	SNSVecPlus Algorithm = "SNS-Vec+"
	// SNSRndPlus is the stable sampled variant — the paper's recommended
	// configuration and the default.
	SNSRndPlus Algorithm = "SNS-Rnd+"
)

// Config configures a Tracker.
type Config struct {
	// Dims are the categorical mode sizes N_1..N_{M-1} (the time mode is
	// implicit). Required.
	Dims []int
	// W is the number of tensor units in the window (paper default 10).
	W int
	// Period is the tensor-unit length T in stream time units. Required.
	Period int64
	// Rank is the CP rank R (paper default 20).
	Rank int
	// Algorithm selects the update rule (default SNSRndPlus).
	Algorithm Algorithm
	// Theta is the sampling threshold θ for the Rnd variants (default 20).
	Theta int
	// Eta is the clipping threshold η for the ⁺ variants (default 1000).
	Eta float64
	// Seed drives sampling and the ALS warm start (default 1).
	Seed int64
	// ALSIters bounds the warm-start ALS sweeps in Start (default 20).
	ALSIters int
	// LatencyBudget, when positive and the algorithm is SNSRnd or
	// SNSRndPlus, enables the auto-θ controller: θ is adapted online so
	// the mean per-update latency tracks the budget — the paper's
	// practitioner's guide ("increase θ as much as possible within your
	// runtime budget") automated.
	LatencyBudget time.Duration
	// NonNegative, with SNSVecPlus or SNSRndPlus, constrains factor
	// entries to [0, Eta] — an extension for count data where negative
	// loadings have no interpretation. Ignored by the other algorithms.
	NonNegative bool
	// Parallelism, when greater than 1, solves the two independent
	// time-mode row updates of each shift event concurrently on a
	// persistent worker pool of that size. Results are bit-identical to
	// the sequential execution (the default, 0 or 1): backups, sampling
	// and Gram updates keep their sequential order, only the independent
	// row solves overlap. Trackers with a pool should be released with
	// Close. Ignored by SNSMat (which has no per-row outline).
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 10
	}
	if c.Rank == 0 {
		c.Rank = 20
	}
	if c.Algorithm == "" {
		c.Algorithm = SNSRndPlus
	}
	if c.Theta == 0 {
		c.Theta = 20
	}
	if c.Eta == 0 {
		c.Eta = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ALSIters == 0 {
		c.ALSIters = 20
	}
	return c
}

func (c Config) validate() error {
	if len(c.Dims) == 0 {
		return fmt.Errorf("%w: Config.Dims is required", ErrConfig)
	}
	for m, d := range c.Dims {
		if d <= 0 {
			return fmt.Errorf("%w: Dims[%d] = %d must be positive", ErrConfig, m, d)
		}
	}
	if c.Period <= 0 {
		return fmt.Errorf("%w: Config.Period must be positive", ErrConfig)
	}
	if c.W <= 0 {
		return fmt.Errorf("%w: Config.W must be positive", ErrConfig)
	}
	if c.Rank <= 0 {
		return fmt.Errorf("%w: Config.Rank must be positive", ErrConfig)
	}
	if c.Theta <= 0 {
		return fmt.Errorf("%w: Config.Theta must be positive", ErrConfig)
	}
	if c.Eta <= 0 {
		return fmt.Errorf("%w: Config.Eta must be positive", ErrConfig)
	}
	switch c.Algorithm {
	case SNSMat, SNSVec, SNSRnd, SNSVecPlus, SNSRndPlus:
	default:
		return fmt.Errorf("%w: unknown algorithm %q", ErrConfig, c.Algorithm)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("%w: Config.Parallelism = %d must be non-negative", ErrConfig, c.Parallelism)
	}
	if c.Parallelism > 1024 {
		return fmt.Errorf("%w: Config.Parallelism = %d exceeds the 1024 cap", ErrConfig, c.Parallelism)
	}
	return nil
}

// Tracker maintains a continuous CP decomposition of a sparse tensor
// stream. It is not safe for concurrent use.
type Tracker struct {
	cfg     Config
	win     *window.Window
	dec     core.Decomposer
	started bool
	events  uint64
	// pool is the shared row-solve worker pool (nil unless
	// Config.Parallelism > 1), created with the first decomposer and
	// released by Close.
	pool *core.Pool
	// apply is the cached event sink (decomposer update + counter), built
	// once at Start so the per-event hot path creates no closures. Nil
	// while filling.
	apply func(window.Change)
	// idxBuf is the reusable full-index scratch for Predict/Observed.
	idxBuf []int
}

// New builds a Tracker in the filling phase: Push only feeds the tensor
// window until Start is called.
func New(cfg Config) (*Tracker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tracker{
		cfg:    cfg,
		win:    window.New(cfg.Dims, cfg.W, cfg.Period),
		idxBuf: make([]int, len(cfg.Dims)+1),
		pool:   newTrackerPool(cfg),
	}, nil
}

// newTrackerPool builds the row-solve worker pool for a configuration, or
// nil for the sequential default. Created at construction — not lazily at
// Start — so the field is immutable once the tracker escapes to an engine
// shard and concurrent Metrics scrapes can read it without a lock.
func newTrackerPool(cfg Config) *core.Pool {
	if cfg.Parallelism <= 1 {
		return nil
	}
	return core.NewPool(cfg.Parallelism, len(cfg.Dims)+1, cfg.Rank)
}

// checkCoord validates a categorical coordinate against the configuration.
func (t *Tracker) checkCoord(coord []int) error {
	if len(coord) != len(t.cfg.Dims) {
		return &CoordError{Mode: -1, Got: len(coord), Limit: len(t.cfg.Dims)}
	}
	for m, i := range coord {
		if i < 0 || i >= t.cfg.Dims[m] {
			return &CoordError{Mode: m, Got: i, Limit: t.cfg.Dims[m]}
		}
	}
	return nil
}

// pushOne is the per-event core shared by Push and PushBatch — validate,
// drain due scheduled events, ingest, apply — so the two ingestion paths
// cannot diverge. Allocation-free in steady state.
//
//sns:hotpath
func (t *Tracker) pushOne(coord []int, value float64, tm int64) error {
	if err := t.checkCoord(coord); err != nil {
		return err
	}
	if err := checkValue(value); err != nil {
		return err
	}
	if tm < t.win.Now() {
		return staleErr(tm, t.win.Now())
	}
	t.win.AdvanceTo(tm, t.apply)
	if ch, ok := t.win.Ingest(stream.Tuple{Coord: coord, Value: value, Time: tm}); ok && t.apply != nil {
		t.apply(ch)
	}
	return nil
}

// Push feeds one stream tuple. Before Start it only maintains the window;
// after Start every resulting event (the arrival plus any scheduled shifts
// or expirations that came due) also updates the factor matrices. Tuples
// must arrive in chronological order.
//
// Push does not retain coord (the window schedule stores a packed key), so
// callers may reuse the slice across calls. The steady-state path —
// validation, window maintenance, factor update — is allocation-free.
//
//sns:hotpath
func (t *Tracker) Push(coord []int, value float64, tm int64) error {
	return t.pushOne(coord, value, tm)
}

// PushBatch feeds a chronological batch of events in one pass, interleaving
// due scheduled shift/expiry events with the arrivals exactly as repeated
// Push calls would — the batch and event-at-a-time paths are equivalence-
// tested to produce bit-identical window and factor state. Events that fail
// validation (arity, range, time regression) are skipped; applied is the
// number accepted and err joins one *RejectError per rejected event
// (errors.Join), each carrying the event's batch index and the underlying
// cause — nil when every event was accepted, so the accept path allocates
// nothing. This is the engine shard writer's ingestion path: one call per
// mailbox batch instead of one per event.
//
//sns:hotpath
func (t *Tracker) PushBatch(events []Event) (applied int, err error) {
	var rej rejects
	for i := range events {
		ev := &events[i]
		if perr := t.pushOne(ev.Coord, ev.Value, ev.Time); perr != nil {
			rej = append(rej, &RejectError{Index: i, Err: perr})
			continue
		}
		applied++
	}
	return applied, rej.join()
}

// AdvanceTo moves stream time forward without a new tuple, processing any
// scheduled shift/expiry events (and, after Start, updating factors for
// each).
//
//sns:hotpath
func (t *Tracker) AdvanceTo(tm int64) error {
	if tm < t.win.Now() {
		return staleErr(tm, t.win.Now())
	}
	t.win.AdvanceTo(tm, t.apply)
	return nil
}

// Start warm-starts the factor matrices with ALS on the current window
// (Section VI-A of the paper) and switches the tracker online. It is an
// error to call it twice.
func (t *Tracker) Start() error {
	if t.started {
		return ErrAlreadyStarted
	}
	init := als.Run(t.win.X(), als.Options{Rank: t.cfg.Rank, MaxIters: t.cfg.ALSIters, Seed: t.cfg.Seed})
	t.dec = t.newDecomposer(init)
	t.goOnline()
	return nil
}

// newDecomposer builds the configured algorithm's decomposer around model.
// Shared by Start and checkpoint restore (adopt) so the two construction
// paths — including the auto-θ wrapping — cannot drift. The config is
// validated at construction, so the switch is exhaustive; nil is returned
// only for a corrupted Algorithm value and callers treat it as an error.
func (t *Tracker) newDecomposer(model *cpd.Model) core.Decomposer {
	switch t.cfg.Algorithm {
	case SNSMat:
		return core.NewSNSMat(t.win, model)
	case SNSVec:
		dec := core.NewSNSVec(t.win, model)
		t.attachPool(dec)
		return dec
	case SNSRnd:
		dec := core.NewSNSRnd(t.win, model, t.cfg.Theta, t.cfg.Seed)
		t.attachPool(dec)
		return wrapAuto(dec, t.cfg.LatencyBudget)
	case SNSVecPlus:
		dec := core.NewSNSVecPlus(t.win, model, t.cfg.Eta)
		dec.NonNegative = t.cfg.NonNegative
		t.attachPool(dec)
		return dec
	case SNSRndPlus:
		dec := core.NewSNSRndPlus(t.win, model, t.cfg.Theta, t.cfg.Eta, t.cfg.Seed)
		dec.NonNegative = t.cfg.NonNegative
		t.attachPool(dec)
		return wrapAuto(dec, t.cfg.LatencyBudget)
	}
	return nil
}

// attachPool hands the tracker's worker pool (from newTrackerPool, when
// Config.Parallelism > 1) to a freshly built decomposer. Attachment
// happens before any auto-θ wrapping, on the concrete variant; both the
// Start and checkpoint-restore construction paths flow through here.
func (t *Tracker) attachPool(dec interface{ EnablePool(*core.Pool) }) {
	if t.pool != nil {
		dec.EnablePool(t.pool)
	}
}

// Close releases the tracker's background resources — today, the
// Parallelism worker pool. It is idempotent, safe before Start, and a
// no-op for sequential trackers. The tracker itself remains usable
// afterward, but further events apply sequentially (a decomposer still
// holding the closed pool falls back on its own).
func (t *Tracker) Close() {
	if t.pool != nil {
		t.pool.Close()
	}
}

// PoolStats is a snapshot of the health counters of a tracker's parallel
// row-solve pool (Config.Parallelism).
type PoolStats struct {
	// Workers is the configured pool size.
	Workers int
	// PairEvents counts shift events whose independent time-mode row
	// pair was solved in parallel.
	PairEvents uint64
	// RowsSolved counts row solves executed on pool workers.
	RowsSolved uint64
}

// PoolStats reports the parallel row-solve pool's health counters; ok is
// false for sequential trackers (Parallelism ≤ 1).
func (t *Tracker) PoolStats() (stats PoolStats, ok bool) {
	if t.pool == nil {
		return PoolStats{}, false
	}
	ps := t.pool.Stats()
	return PoolStats{Workers: ps.Workers, PairEvents: ps.PairEvents, RowsSolved: ps.RowsSolved}, true
}

// goOnline marks the tracker started and installs the cached per-event
// apply sink. Shared by Start and checkpoint restore (adopt) so the two
// transitions cannot drift.
func (t *Tracker) goOnline() {
	t.started = true
	t.apply = func(ch window.Change) {
		t.dec.Apply(ch)
		t.events++
	}
}

// wrapAuto attaches the auto-θ controller when a latency budget is set.
func wrapAuto(inner core.ThetaAdjustable, budget time.Duration) core.Decomposer {
	if budget <= 0 {
		return inner
	}
	return core.NewAutoTheta(inner, budget)
}

// Started reports whether the tracker is online.
func (t *Tracker) Started() bool { return t.started }

// Now returns the current stream time.
func (t *Tracker) Now() int64 { return t.win.Now() }

// Events returns the number of factor updates applied since Start.
func (t *Tracker) Events() uint64 { return t.events }

// NNZ returns the number of nonzero entries in the current tensor window.
func (t *Tracker) NNZ() int { return t.win.X().NNZ() }

// checkIndex validates categorical coordinates and a time-mode index
// against mode sizes dims and window length w. Shared by every predict
// path (Tracker, Engine).
func checkIndex(dims []int, w int, coord []int, timeIdx int) error {
	if len(coord) != len(dims) {
		return &CoordError{Mode: -1, Got: len(coord), Limit: len(dims)}
	}
	for m, i := range coord {
		if i < 0 || i >= dims[m] {
			return &CoordError{Mode: m, Got: i, Limit: dims[m]}
		}
	}
	if timeIdx < 0 || timeIdx >= w {
		return &CoordError{Mode: -1, Time: true, Got: timeIdx, Limit: w}
	}
	return nil
}

// checkIndex validates against the tracker's configuration. It reads only
// immutable config, so it is safe without synchronization.
func (t *Tracker) checkIndex(coord []int, timeIdx int) error {
	return checkIndex(t.cfg.Dims, t.cfg.W, coord, timeIdx)
}

// fullIndex builds the M-mode index in the tracker's reusable scratch
// (valid until the next Predict/Observed; the Tracker is single-goroutine
// by contract, so sharing the buffer is safe).
func (t *Tracker) fullIndex(coord []int, timeIdx int) []int {
	copy(t.idxBuf, coord)
	t.idxBuf[len(coord)] = timeIdx
	return t.idxBuf
}

// Predict evaluates the current model at categorical coordinates and a
// time-mode index in [0, W): W−1 is the newest (current) tensor unit.
func (t *Tracker) Predict(coord []int, timeIdx int) (float64, error) {
	if !t.started {
		return 0, ErrNotStarted
	}
	if err := t.checkIndex(coord, timeIdx); err != nil {
		return 0, err
	}
	return t.dec.Model().Predict(t.fullIndex(coord, timeIdx)), nil
}

// Observed returns the actual window entry at categorical coordinates and
// a time-mode index (0 when absent).
func (t *Tracker) Observed(coord []int, timeIdx int) (float64, error) {
	if err := t.checkIndex(coord, timeIdx); err != nil {
		return 0, err
	}
	return t.win.X().At(t.fullIndex(coord, timeIdx)), nil
}

// Fitness returns 1 − ‖X−X̃‖_F/‖X‖_F for the current window and model —
// the paper's accuracy metric. Zero before Start.
func (t *Tracker) Fitness() float64 {
	if !t.started {
		return 0
	}
	return cpd.Fitness(t.win.X(), t.dec.Model())
}

// Factors is a deep-copied snapshot of the CP model: one matrix per mode
// (categorical modes first, time mode last), each Rows×Rank, plus the
// column weights λ (all ones for the normalization-free variants).
type Factors struct {
	Matrices [][][]float64
	Lambda   []float64
}

// Factors snapshots the current model (nil before Start).
func (t *Tracker) Factors() *Factors {
	if !t.started {
		return nil
	}
	m := t.dec.Model()
	out := &Factors{Lambda: append([]float64(nil), m.Lambda...)}
	for _, f := range m.Factors {
		rows := make([][]float64, f.Rows())
		for i := range rows {
			rows[i] = append([]float64(nil), f.Row(i)...)
		}
		out.Matrices = append(out.Matrices, rows)
	}
	return out
}

// AlgorithmName returns the active algorithm's paper name ("SNS-Rnd+" …),
// or the configured one before Start.
func (t *Tracker) AlgorithmName() string {
	if t.started {
		return t.dec.Name()
	}
	return string(t.cfg.Algorithm)
}

// ParamCount returns the number of model parameters R·(ΣN_m + W).
func (t *Tracker) ParamCount() int {
	dims := 0
	for _, d := range t.cfg.Dims {
		dims += d
	}
	return t.cfg.Rank * (dims + t.cfg.W)
}
