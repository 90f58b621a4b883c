package core

import (
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/rng"
	"slicenstitch/internal/window"
)

// SNSVec is SLICENSTITCH-VECTOR (Algorithms 3–4): per event it refreshes
// only the factor rows that approximate the changed entries. Time-mode rows
// move by the approximated additive rule Eq. (9); non-time rows are re-solved
// exactly by the least-squares rule Eq. (12); Gram matrices follow Eq. (13).
// Factors are left unnormalized, which is what eventually makes the method
// numerically unstable on some streams (Observation 3) — that is faithful
// to the paper, and fixed by SNSVecPlus.
type SNSVec struct {
	base
}

// NewSNSVec builds an SNS_VEC tracker from an initial model (cloned; its λ
// is folded into the factors since SNS_VEC skips normalization).
func NewSNSVec(win *window.Window, init *cpd.Model) *SNSVec {
	b := newBase(win, init)
	foldLambda(b.model)
	b.grams = b.model.Grams()
	return &SNSVec{base: b}
}

// Name returns "SNS-Vec".
func (s *SNSVec) Name() string { return "SNS-Vec" }

// Apply runs the common outline of Algorithm 3.
//
//sns:hotpath
func (s *SNSVec) Apply(ch window.Change) {
	applyOutline(&s.base, s, ch)
}

func (s *SNSVec) beginEvent(window.Change) {}

// updateRow is updateRowVec of Algorithm 4 as the staged sequence
// prepare → solve → commit. All intermediates live in the shared
// sequential workspace, so steady-state updates allocate nothing.
func (s *SNSVec) updateRow(m, i int, ch window.Change) {
	p := s.prepareRow(m, i)
	s.solveRow(m, i, ch, p, nil, false, &s.ws)
	s.commitRow(m, i, p)
}

func (s *SNSVec) prepareRow(m, i int) []float64 {
	return s.savePrev(s.model.Factors[m].Row(i))
}

func (s *SNSVec) sampleFor(int, int, *cellSample) bool { return false }

// solveRow computes the new row values in place without touching the
// Grams (commitRow applies those).
func (s *SNSVec) solveRow(m, i int, ch window.Change, p []float64, _ *cellSample, _ bool, ws *rowWS) {
	row := s.model.Factors[m].Row(i)
	h := cpd.GramsExceptInto(ws.hBuf, s.grams, m)
	if m == s.timeMode() {
		// Eq. (9): A⁽ᴹ⁾(i,:) += ΔX_(M)(i,:) K⁽ᴹ⁾ H⁽ᴹ⁾†.
		u := s.deltaTerm(ch, m, i, ws.rowBuf, ws.krBuf)
		delta := ws.solver.Solve(h, u)
		for k := range row {
			row[k] = p[k] + delta[k]
		}
	} else {
		// Eq. (12): A⁽ᵐ⁾(i,:) ← (X+ΔX)_(m)(i,:) K⁽ᵐ⁾ H⁽ᵐ⁾†.
		u := s.kern.MTTKRPRow(s.win.X(), s.model.Factors, m, i, ws.dataBuf, ws.krBuf)
		copy(row, ws.solver.Solve(h, u))
	}
}

func (s *SNSVec) commitRow(m, i int, p []float64) {
	updateGram(s.grams[m], p, s.model.Factors[m].Row(i))
}

// savedRow is a per-event backup of one factor row, used to evaluate the
// event-start model X̃ = ⟦A_prev⟧ (Section V-C).
type savedRow struct {
	mode, idx int
	vals      []float64
}

// prevTracker maintains the per-event A_prev view required by the sampling
// variants: U⁽ᵐ⁾ = A_prev⁽ᵐ⁾ᵀA⁽ᵐ⁾ (reset to Q⁽ᵐ⁾ at event start,
// Algorithm 3 line 1, then advanced by Eq. (17)/(26)) plus lazy backups of
// the few rows that change within the event. Backup rows come from a
// per-tracker pool (an event touches at most order+1 rows); sampling and
// prediction scratch lives in the executing workspace (rowWS), keeping
// the sampled update allocation-free in steady state and race-free under
// the parallel time-pair path.
type prevTracker struct {
	prevGrams  []*mat.Dense
	backups    []savedRow
	backupPool [][]float64
	exclude    []uint64 // the event's ΔX cell keys (tiny; seed the sampler's duplicate filter)
}

func newPrevTracker(b *base) prevTracker {
	pt := prevTracker{
		exclude: make([]uint64, 0, 4),
	}
	for _, g := range b.grams {
		pt.prevGrams = append(pt.prevGrams, g.Clone())
	}
	return pt
}

// begin resets the tracker for a new event and records the ΔX cells to
// exclude from sampling (footnote 2 of the paper).
func (pt *prevTracker) begin(b *base, ch window.Change) {
	for m, g := range b.grams {
		pt.prevGrams[m].CopyFrom(g)
	}
	pt.backups = pt.backups[:0]
	pt.exclude = pt.exclude[:0]
	x := b.win.X()
	for _, cell := range ch.Cells {
		pt.exclude = append(pt.exclude, x.Key(cell.Coord))
	}
}

// saveRow snapshots a row before its update into a pooled buffer and
// returns the snapshot (valid until the next begin).
func (pt *prevTracker) saveRow(m, i int, row []float64) []float64 {
	var p []float64
	if n := len(pt.backups); n < len(pt.backupPool) {
		p = pt.backupPool[n]
	} else {
		p = make([]float64, len(row))
		pt.backupPool = append(pt.backupPool, p)
	}
	copy(p, row)
	pt.backups = append(pt.backups, savedRow{mode: m, idx: i, vals: p})
	return p
}

// prevRow returns A_prev⁽ᵐ⁾(i,:): the backed-up copy when the row changed
// earlier in this event, the live row otherwise.
func (pt *prevTracker) prevRow(b *base, m, i int) []float64 {
	for _, bk := range pt.backups {
		if bk.mode == m && bk.idx == i {
			return bk.vals
		}
	}
	return b.model.Factors[m].Row(i)
}

// predictPrev evaluates x̃_J under the event-start factors. Row lookups are
// hoisted out of the rank loop — this sits on the θ-sampling hot path.
// Order-3 and order-4 models run the selected fused kernel; its multiply
// chain is the generic loop's exactly. rows is order-length lookup
// scratch from the executing workspace (unused on the fused paths).
func (pt *prevTracker) predictPrev(b *base, coord []int, rows [][]float64) float64 {
	if p3 := b.kern.Predict3; p3 != nil {
		return p3(pt.prevRow(b, 0, coord[0]), pt.prevRow(b, 1, coord[1]), pt.prevRow(b, 2, coord[2]))
	}
	if p4 := b.kern.Predict4; p4 != nil {
		return p4(pt.prevRow(b, 0, coord[0]), pt.prevRow(b, 1, coord[1]), pt.prevRow(b, 2, coord[2]), pt.prevRow(b, 3, coord[3]))
	}
	for m := range b.model.Factors {
		rows[m] = pt.prevRow(b, m, coord[m])
	}
	r := b.model.Rank()
	s := 0.0
	for k := 0; k < r; k++ {
		p := 1.0
		for _, row := range rows {
			p *= row[k]
		}
		s += p
	}
	return s
}

// SNSRnd is SLICENSTITCH-RANDOM (Algorithms 3–4): like SNS_VEC, but a row
// whose degree exceeds the threshold θ is refreshed from θ sampled nonzeros
// via the approximated rule Eq. (16), capping the per-event cost at
// O(M²Rθ + M²R² + MR³) — constant time for fixed M, R, θ (Theorem 5).
type SNSRnd struct {
	base
	prevTracker
	theta int
	rng   *rng.RNG
}

// NewSNSRnd builds an SNS_RND tracker. theta is the sampling threshold θ;
// seed drives the sampler (a serializable internal/rng generator, so
// checkpoints can capture the exact draw position).
func NewSNSRnd(win *window.Window, init *cpd.Model, theta int, seed int64) *SNSRnd {
	if theta < 1 {
		panic("core: SNSRnd theta must be ≥ 1")
	}
	b := newBase(win, init)
	foldLambda(b.model)
	b.grams = b.model.Grams()
	s := &SNSRnd{base: b, theta: theta, rng: rng.New(seed)}
	s.prevTracker = newPrevTracker(&s.base)
	return s
}

// Name returns "SNS-Rnd".
func (s *SNSRnd) Name() string { return "SNS-Rnd" }

// Apply runs the common outline of Algorithm 3.
//
//sns:hotpath
func (s *SNSRnd) Apply(ch window.Change) {
	applyOutline(&s.base, s, ch)
}

func (s *SNSRnd) beginEvent(ch window.Change) {
	s.begin(&s.base, ch)
}

// updateRow is updateRowRan of Algorithm 4 as the staged sequence
// prepare → sample → solve → commit. Intermediates live in the shared
// sequential workspace; steady-state updates allocate nothing (only the
// rare singular-system pseudoinverse fallback does).
func (s *SNSRnd) updateRow(m, i int, ch window.Change) {
	p := s.prepareRow(m, i)
	sampled := s.sampleFor(m, i, &s.ws.sample)
	s.solveRow(m, i, ch, p, &s.ws.sample, sampled, &s.ws)
	s.commitRow(m, i, p)
}

func (s *SNSRnd) prepareRow(m, i int) []float64 {
	return s.saveRow(m, i, s.model.Factors[m].Row(i))
}

// sampleFor draws the θ-sample when row (m,i)'s degree exceeds θ — the
// sole RNG consumer of the row update, so pre-drawing for the parallel
// pair in row order reproduces the sequential RNG stream exactly.
func (s *SNSRnd) sampleFor(m, i int, dst *cellSample) bool {
	x := s.win.X()
	if x.Deg(m, i) <= s.theta {
		return false
	}
	sampleSliceCells(x, m, i, s.theta, s.rng, s.exclude, dst, &s.ws.seen, s.ws.coordBuf)
	return true
}

// solveRow computes the new row values in place without touching the
// Grams or the RNG (commitRow and sampleFor own those).
func (s *SNSRnd) solveRow(m, i int, ch window.Change, p []float64, sample *cellSample, sampled bool, ws *rowWS) {
	row := s.model.Factors[m].Row(i)
	x := s.win.X()
	h := cpd.GramsExceptInto(ws.hBuf, s.grams, m)
	if !sampled {
		// Exact path, Eq. (12).
		u := s.kern.MTTKRPRow(x, s.model.Factors, m, i, ws.dataBuf, ws.krBuf)
		copy(row, ws.solver.Solve(h, u))
	} else {
		// Sampled path, Eq. (16):
		// A⁽ᵐ⁾(i,:) ← A⁽ᵐ⁾(i,:) H_prev H† + (X̄+ΔX)_(m)(i,:) K⁽ᵐ⁾ H†.
		hPrev := cpd.GramsExceptInto(ws.huBuf, s.prevGrams, m)
		u := mat.VecMulInto(ws.dataBuf, p, hPrev)
		order := x.Order()
		for j, key := range sample.keys {
			coord := sample.coord(j, order)
			resid := x.AtKey(key) - s.predictPrev(&s.base, coord, ws.rowsBuf)
			s.krAxpy(u, resid, coord, m, ws.krBuf)
		}
		dt := s.deltaTerm(ch, m, i, ws.rowBuf, ws.krBuf)
		for k := range u {
			u[k] += dt[k]
		}
		copy(row, ws.solver.Solve(h, u))
	}
}

func (s *SNSRnd) commitRow(m, i int, p []float64) {
	row := s.model.Factors[m].Row(i)
	updateGram(s.grams[m], p, row)
	updatePrevGram(s.prevGrams[m], p, row)
}
