package core

import (
	"sync"
	"sync/atomic"

	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
	"slicenstitch/internal/window"
)

// This file implements the opt-in parallel execution of the per-event row
// updates. Per event, the common outline (Algorithm 3) refreshes up to two
// time-mode rows plus one row per categorical mode. The categorical rows
// form a sequential chain — each reads the Gram matrices and factor rows
// the previous one wrote — but the two time-mode rows of a shift event are
// mutually independent:
//
//   - they write disjoint factor rows (W−w and W−w−1 of the time mode);
//   - their solves read only the Grams of the *other* modes (H⁽ᵐ⁾ and H_u
//     exclude mode m), which no time-mode update writes;
//   - their only shared writes — Q⁽ᴹ⁾ and U⁽ᴹ⁾ — are commutative Gram
//     bumps that are a deterministic function of (event-start row, final
//     row), so they can be deferred and replayed sequentially.
//
// The pool therefore runs each event as prepare → solve → commit: row
// backups and θ-samples are taken sequentially (preserving the RNG draw
// order and the A_prev backup order of the sequential execution), the two
// row solves run concurrently on persistent workers with per-worker
// scratch, and the Gram updates are replayed in sequential row order
// (W−w first, then W−w−1). Every floating-point operation runs with the
// same operands in the same order as the sequential execution, so the
// resulting factors, Grams, and checkpoint bytes are bit-identical —
// TestParallelBitIdentical holds that contract.

// rowWS is the scratch one row solve needs: R-vectors for Khatri-Rao
// rows, data/delta terms, an R×R Hadamard-of-Grams workspace (plus one
// for H_u), coordinate and factor-row lookup buffers, a Cholesky solver,
// and the θ-sample with its duplicate filter. Each worker owns one, as
// does the sequential path (base.ws), so solves never share mutable
// state. Only the sequential workspace's sample, seen and coordBuf serve
// the sampler (sampling is sequential-only); workers leave theirs empty.
type rowWS struct {
	krBuf    []float64
	rowBuf   []float64
	dataBuf  []float64
	coordBuf []int
	rowsBuf  [][]float64
	hBuf     *mat.Dense
	huBuf    *mat.Dense
	solver   *mat.SymSolver
	sample   cellSample
	seen     tensor.StampedSet
}

func newRowWS(order, rank int) rowWS {
	return rowWS{
		krBuf:    make([]float64, rank),
		rowBuf:   make([]float64, rank),
		dataBuf:  make([]float64, rank),
		coordBuf: make([]int, order),
		rowsBuf:  make([][]float64, order),
		hBuf:     mat.New(rank, rank),
		huBuf:    mat.New(rank, rank),
		solver:   mat.NewSymSolver(rank),
	}
}

// parallelSolver is the staged form of a row update. Every outline-based
// variant implements it; updateRow is prepareRow + sampleFor + solveRow +
// commitRow executed back to back, and the pool interleaves the stages of
// independent rows instead.
type parallelSolver interface {
	rowUpdater
	// prepareRow registers the event-start backup of row (m,i) — visible
	// to later prevRow lookups — and returns it. Sequential-only.
	prepareRow(m, i int) []float64
	// sampleFor pre-draws the θ-sample for row (m,i) into dst when the
	// variant's solve needs one, and reports whether the sampled path
	// applies. Sequential-only: this is the sole RNG consumer of a row
	// update.
	sampleFor(m, i int, dst *cellSample) bool
	// solveRow computes the new values of row (m,i) in place, using only
	// ws for scratch — no Gram writes, no RNG draws, no shared-buffer
	// access. Safe to run concurrently with solveRow of an independent row.
	solveRow(m, i int, ch window.Change, p []float64, sample *cellSample, sampled bool, ws *rowWS)
	// commitRow replays the Gram updates implied by the move p → row(m,i).
	// Sequential-only; must be invoked in the sequential row order.
	commitRow(m, i int, p []float64)
}

// PoolStats is a snapshot of a pool's health counters.
type PoolStats struct {
	// Workers is the pool size.
	Workers int
	// PairEvents counts events whose time-mode row pair was solved in
	// parallel.
	PairEvents uint64
	// RowsSolved counts row solves executed on pool workers.
	RowsSolved uint64
}

// poolJob is one row solve handed to a worker. The pool reuses two fixed
// slots per batch, so steady-state submission allocates nothing.
type poolJob struct {
	ps      parallelSolver
	m, i    int
	ch      window.Change
	p       []float64
	sample  *cellSample
	sampled bool
	done    *sync.WaitGroup
}

// Pool executes independent row solves on persistent workers, each with
// its own rowWS. A Pool is owned by one tracker (one event in flight at a
// time) but its Stats may be read concurrently.
type Pool struct {
	size  int
	jobs  chan *poolJob
	slots [2]poolJob
	samp  [2]cellSample
	batch sync.WaitGroup
	wg    sync.WaitGroup
	once  sync.Once
	done  atomic.Bool

	pairEvents atomic.Uint64
	rowsSolved atomic.Uint64
}

// NewPool starts workers goroutines sized for models of the given order
// and rank. Callers must Close the pool to release them.
func NewPool(workers, order, rank int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{size: workers, jobs: make(chan *poolJob)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			ws := newRowWS(order, rank)
			for j := range p.jobs {
				j.ps.solveRow(j.m, j.i, j.ch, j.p, j.sample, j.sampled, &ws)
				j.done.Done()
			}
		}()
	}
	return p
}

// Close stops the workers and waits for them to exit. Idempotent. A
// decomposer still holding the pool falls back to the sequential path
// (applyOutline consults active before submitting).
func (p *Pool) Close() {
	p.once.Do(func() {
		p.done.Store(true)
		close(p.jobs)
		p.wg.Wait()
	})
}

// active reports whether the pool still accepts work.
func (p *Pool) active() bool { return !p.done.Load() }

// Stats snapshots the pool's health counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:    p.size,
		PairEvents: p.pairEvents.Load(),
		RowsSolved: p.rowsSolved.Load(),
	}
}

// runTimePair executes the two independent time-mode row updates of a
// shift event: sequential prepare (backups first, then both θ-samples in
// row order, so the RNG stream matches the sequential execution), parallel
// solves, and a sequential commit replaying the Gram updates in row order.
func (p *Pool) runTimePair(b *base, ps parallelSolver, ch window.Change, i1, i2 int) {
	tm := b.timeMode()
	p1 := ps.prepareRow(tm, i1)
	p2 := ps.prepareRow(tm, i2)
	ok1 := ps.sampleFor(tm, i1, &p.samp[0])
	ok2 := ps.sampleFor(tm, i2, &p.samp[1])
	p.batch.Add(2)
	p.slots[0] = poolJob{ps: ps, m: tm, i: i1, ch: ch, p: p1, sample: &p.samp[0], sampled: ok1, done: &p.batch}
	p.slots[1] = poolJob{ps: ps, m: tm, i: i2, ch: ch, p: p2, sample: &p.samp[1], sampled: ok2, done: &p.batch}
	p.jobs <- &p.slots[0]
	p.jobs <- &p.slots[1]
	p.batch.Wait()
	ps.commitRow(tm, i1, p1)
	ps.commitRow(tm, i2, p2)
	p.pairEvents.Add(1)
	p.rowsSolved.Add(2)
}
