// Package core implements the SliceNStitch online optimization algorithms
// of Section V of the paper: SNS_MAT (Algorithm 2), SNS_VEC and SNS_RND
// (Algorithms 3–4), and the stable coordinate-descent variants SNS⁺_VEC and
// SNS⁺_RND (Algorithm 5). Each updates the CP factor matrices in response
// to a single change ΔX of the tensor window (Definition 6), i.e. in
// response to every arrival/shift/expiry event of the continuous tensor
// model.
package core

import (
	"fmt"

	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/window"
)

// Decomposer is an online CP decomposition reacting to window changes.
// Apply must be called after the window itself has absorbed the change
// (window.Drive guarantees this ordering), so that win.X() is X + ΔX.
type Decomposer interface {
	// Name returns the paper's algorithm name, e.g. "SNS-Vec+".
	Name() string
	// Apply updates the factor matrices in response to one event.
	Apply(ch window.Change)
	// Model returns the live CP model (not a copy).
	Model() *cpd.Model
}

// base carries the state shared by all SliceNStitch variants: the window
// being tracked, the factor model, and the maintained Gram matrices
// Q⁽ᵐ⁾ = A⁽ᵐ⁾ᵀA⁽ᵐ⁾.
type base struct {
	win   *window.Window
	model *cpd.Model
	grams []*mat.Dense
	// ws is the sequential row-solve workspace, reused across events so
	// that steady-state row updates are allocation-free (the hot-path
	// requirement behind the per-event complexity claims). Parallel solves
	// use per-worker workspaces of the same shape instead (see rowWS).
	ws rowWS
	// pBufs is the rotating pair of event-start row backups handed out by
	// savePrev. Two suffice: at most the two time-mode rows of an event
	// have overlapping backup lifetimes (the parallel prepare→commit
	// span); every other backup is consumed before the next is taken.
	pBufs [2][]float64
	pIdx  int
	// replayBuf reconstructs the live-row states of a coordinate-descent
	// pass during the commit-phase Gram replay (see replayBumps).
	replayBuf []float64
	// kern holds the (order, rank)-specialized row kernels selected once
	// at construction — fixed-rank for the shapes the repo runs hot,
	// bit-identical generic fallbacks otherwise.
	kern *cpd.Kernels
	// pool, when non-nil, solves the independent time-mode row pair of
	// shift events on worker goroutines (see parallel.go). Nil means
	// fully sequential execution; results are bit-identical either way.
	pool *Pool
}

func newBase(win *window.Window, init *cpd.Model) base {
	model := init.Clone()
	wantShape := append(win.Dims(), win.W())
	got := model.Shape()
	if len(got) != len(wantShape) {
		panic(fmt.Sprintf("core: init model order %d != window order %d", len(got), len(wantShape)))
	}
	for m := range got {
		if got[m] != wantShape[m] {
			panic(fmt.Sprintf("core: init model mode %d size %d != window %d", m, got[m], wantShape[m]))
		}
	}
	r := model.Rank()
	return base{
		win:       win,
		model:     model,
		grams:     model.Grams(),
		ws:        newRowWS(len(wantShape), r),
		pBufs:     [2][]float64{make([]float64, r), make([]float64, r)},
		replayBuf: make([]float64, r),
		kern:      cpd.ForShape(len(wantShape), r),
	}
}

// EnablePool attaches a worker pool; subsequent shift events solve their
// time-mode row pair in parallel (bit-identically to the sequential
// path). The caller owns the pool's lifecycle.
func (b *base) EnablePool(p *Pool) { b.pool = p }

// savePrev copies row into the next rotating event-start backup buffer
// and returns it — the lightweight backup used by the variants without a
// prevTracker. A backup stays valid until savePrev runs twice more; the
// outline consumes each one before that (see base.pBufs).
func (b *base) savePrev(row []float64) []float64 {
	p := b.pBufs[b.pIdx&1]
	b.pIdx++
	copy(p, row)
	return p
}

// Model returns the live model.
func (b *base) Model() *cpd.Model { return b.model }

// timeMode returns the index of the time mode (the last mode).
func (b *base) timeMode() int { return b.model.Order() - 1 }

// foldLambda prepares an unnormalized model for the normalization-free
// variants (Section V-C) by delegating to cpd.FoldLambda.
func foldLambda(m *cpd.Model) { cpd.FoldLambda(m) }

// updateGram applies Eq. (13): Q ← Q − pᵀp + aᵀa after row p became row a.
func updateGram(q *mat.Dense, p, a []float64) {
	r := len(a)
	p = p[:r]
	qd := q.Data()
	for i := 0; i < r; i++ {
		ai, pi := a[i], p[i]
		qi := qd[i*r : i*r+r]
		for j, aj := range a {
			qi[j] += ai*aj - pi*p[j]
		}
	}
}

// updatePrevGram applies Eq. (17): U ← U − pᵀp + pᵀa, i.e. the asymmetric
// update of U = A_prevᵀA after the current row moved from p to a while the
// prev row stays p.
func updatePrevGram(u *mat.Dense, p, a []float64) {
	r := len(a)
	p = p[:r]
	ud := u.Data()
	for i := 0; i < r; i++ {
		pi := p[i]
		ui := ud[i*r : i*r+r]
		for j, aj := range a {
			ui[j] += pi * (aj - p[j])
		}
	}
}

// krAxpy accumulates dst[k] += s·(∗_{n≠m} A⁽ⁿ⁾(coord[n],:))[k] — one
// Khatri-Rao term of a data/delta row. Order-3 and order-4 models run the
// fused kernels (no scratch pass); other orders fall back to KRRow + axpy
// into the caller's kr scratch. The forms produce bit-identical sums.
func (b *base) krAxpy(dst []float64, s float64, coord []int, m int, kr []float64) {
	f := b.model.Factors
	if kr3 := b.kern.KRAxpy3; kr3 != nil {
		ma, mb := cpd.OtherModes3(m)
		kr3(dst, s, f[ma].Row(coord[ma]), f[mb].Row(coord[mb]))
		return
	}
	if kr4 := b.kern.KRAxpy4; kr4 != nil {
		ma, mb, mc := cpd.OtherModes4(m)
		kr4(dst, s, f[ma].Row(coord[ma]), f[mb].Row(coord[mb]), f[mc].Row(coord[mc]))
		return
	}
	kr = cpd.KRRow(f, coord, m, kr)
	for k := range dst {
		dst[k] += s * kr[k]
	}
}

// deltaTerm accumulates Σ Δx_J · (∗_{n≠m} A⁽ⁿ⁾(j_n,:)) over the ΔX cells
// whose mode-m index is i — the "ΔX_(m) K⁽ᵐ⁾" row appearing in
// Eqs. (9), (16), (22) and (23). dst is overwritten and returned; kr is
// Khatri-Rao scratch (from the executing workspace, so concurrent row
// solves never share it).
func (b *base) deltaTerm(ch window.Change, m, i int, dst, kr []float64) []float64 {
	for k := range dst {
		dst[k] = 0
	}
	for _, cell := range ch.Cells {
		if cell.Coord[m] != i {
			continue
		}
		b.krAxpy(dst, cell.Delta, cell.Coord, m, kr)
	}
	return dst
}

// rowUpdater is the algorithm-specific part of the common outline
// (Algorithm 3): how one row of one factor matrix is refreshed.
type rowUpdater interface {
	beginEvent(ch window.Change)
	updateRow(m, i int, ch window.Change)
}

// applyOutline runs the common outline of Algorithm 3: for an event with
// shift count w, refresh the affected time-mode rows (0-based indices W−w
// and W−w−1), then the i_m-th row of every non-time factor. When a pool
// is attached and the event touches both time-mode rows, the pair — the
// only mutually independent rows of the outline — is solved in parallel
// (see parallel.go); the categorical rows always run sequentially because
// each reads the Grams and factor rows its predecessors wrote.
func applyOutline(b *base, ru rowUpdater, ch window.Change) {
	ru.beginEvent(ch)
	tm := b.model.Order() - 1
	w := ch.W
	bigW := b.win.W()
	ps, canPar := ru.(parallelSolver)
	if b.pool != nil && canPar && w > 0 && w < bigW && b.pool.active() {
		b.pool.runTimePair(b, ps, ch, bigW-w, bigW-w-1)
	} else {
		if w > 0 {
			ru.updateRow(tm, bigW-w, ch)
		}
		if w < bigW {
			ru.updateRow(tm, bigW-w-1, ch)
		}
	}
	for m := 0; m < tm; m++ {
		ru.updateRow(m, ch.Tuple.Coord[m], ch)
	}
}
