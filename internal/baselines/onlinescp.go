package baselines

import (
	"math"

	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// OnlineSCP re-implements Zhou et al.'s OnlineSCP [16] adapted to the
// sliding tensor window (footnote 5 of the paper). Once per period the
// method
//
//  1. shifts the temporal factor ring and solves the newest temporal row by
//     least squares against the entering unit only (OnlineSCP's temporal
//     recurrence),
//  2. maintains, for every non-temporal mode, the accumulator
//     P⁽ᵐ⁾ = X_(m)(⊙_{n≠m} A⁽ⁿ⁾) as a sum of per-unit contribution
//     matrices,
//  3. refreshes each non-temporal factor in one shot as A⁽ᵐ⁾ = P⁽ᵐ⁾ H⁽ᵐ⁾†,
//  4. rebalances column scales across modes (the role normalization plays
//     in the reference implementation).
//
// RefreshEvery controls the accumulator staleness: with the default 1 the
// contributions are recomputed under the current factors every period (one
// MTTKRP over the window — still a single sweep, far below PeriodicALS's
// multi-sweep refit); larger values keep contributions frozen at the factor
// state of their unit's entry, which is the growing-tensor OnlineSCP
// approximation and is exposed for the staleness ablation benchmark. In a
// sliding window a unit is 1/W of the data, so factor drift per period is
// much larger than in OnlineSCP's original unbounded-history setting —
// that is why the exact refresh is the default here (see DESIGN.md §2).
type OnlineSCP struct {
	model *cpd.Model
	grams []*mat.Dense
	p     []*mat.Dense     // running accumulators (nil at the temporal mode)
	ring  [][](*mat.Dense) // ring[w][mode]: contribution of the unit at temporal index w
	krBuf []float64
	uBuf  []float64
	hBuf  *mat.Dense
	// RefreshEvery ≥ 1: recompute contributions exactly every k periods.
	RefreshEvery int
	periods      int
}

// NewOnlineSCP builds the baseline from the initial window and model (the
// model is cloned and un-normalized; accumulators start exact, split by
// unit so they can expire exactly).
func NewOnlineSCP(x0 *tensor.Sparse, init *cpd.Model) *OnlineSCP {
	m := init.Clone()
	cpd.FoldLambda(m)
	tm := m.Order() - 1
	w := m.Factors[tm].Rows()
	o := &OnlineSCP{
		model:        m,
		grams:        m.Grams(),
		krBuf:        make([]float64, m.Rank()),
		uBuf:         make([]float64, m.Rank()),
		hBuf:         mat.New(m.Rank(), m.Rank()),
		RefreshEvery: 1,
	}
	o.p = make([]*mat.Dense, m.Order())
	for mode := 0; mode < tm; mode++ {
		o.p[mode] = mat.New(m.Factors[mode].Rows(), m.Rank())
	}
	o.ring = make([][]*mat.Dense, w)
	for ti := 0; ti < w; ti++ {
		o.ring[ti] = o.sliceContribution(x0, ti)
		o.addContribution(o.ring[ti], 1)
	}
	return o
}

// sliceContribution computes, for every non-temporal mode, the unit's
// contribution to P⁽ᵐ⁾ under the current factors.
func (o *OnlineSCP) sliceContribution(x *tensor.Sparse, timeIdx int) []*mat.Dense {
	tm := o.model.Order() - 1
	out := make([]*mat.Dense, tm)
	for mode := 0; mode < tm; mode++ {
		out[mode] = mat.New(o.model.Factors[mode].Rows(), o.model.Rank())
	}
	x.ForEachInSlice(tm, timeIdx, func(coord []int, v float64) {
		for mode := 0; mode < tm; mode++ {
			kr := cpd.KRRow(o.model.Factors, coord, mode, o.krBuf)
			row := out[mode].Row(coord[mode])
			for k := range row {
				row[k] += v * kr[k]
			}
		}
	})
	return out
}

// addContribution folds a unit contribution into the accumulators with the
// given sign.
func (o *OnlineSCP) addContribution(c []*mat.Dense, sign float64) {
	for mode, cm := range c {
		pd := o.p[mode].Data()
		for i, v := range cm.Data() {
			pd[i] += sign * v
		}
	}
}

// Name returns "OnlineSCP".
func (o *OnlineSCP) Name() string { return "OnlineSCP" }

// Model returns the live model.
func (o *OnlineSCP) Model() *cpd.Model { return o.model }

// OnPeriod performs one sliding-window OnlineSCP step.
func (o *OnlineSCP) OnPeriod(x *tensor.Sparse) {
	tm := o.model.Order() - 1
	w := o.model.Factors[tm].Rows()
	at := o.model.Factors[tm]
	o.periods++

	// 1. Temporal bookkeeping: remember the expiring unit's contribution,
	// shift the ring toward the past, and solve the newest row from the
	// entering unit.
	expiring := o.ring[0]
	copy(o.ring, o.ring[1:])
	for i := 0; i+1 < w; i++ {
		copy(at.Row(i), at.Row(i+1))
	}
	for k := range at.Row(w - 1) {
		at.Row(w - 1)[k] = 0
	}
	h := ridge(cpd.GramsExceptInto(o.hBuf, o.grams, tm))
	u := cpd.MTTKRPRowInto(x, o.model.Factors, tm, w-1, o.uBuf, o.krBuf)
	at.SetRow(w-1, mat.SolveSym(h, u))
	o.grams[tm] = mat.Gram(at)

	// 2–3. Maintain the accumulators and refresh the non-temporal factors.
	if o.RefreshEvery <= 1 || o.periods%o.RefreshEvery == 0 {
		// Exact path: Gauss-Seidel — each mode's accumulator is computed
		// under the factors as already updated this period, then solved.
		// (Solving every mode from one shared accumulator snapshot is a
		// Jacobi-style parallel update; on dense windows it overshoots and
		// oscillates, which is why the sequential order is the default.)
		for mode := 0; mode < tm; mode++ {
			cpd.MTTKRPInto(o.p[mode], x, o.model.Factors, mode)
			hm := ridge(cpd.GramsExceptInto(o.hBuf, o.grams, mode))
			hp := mat.PseudoInverseSym(hm)
			o.model.Factors[mode] = mat.Mul(o.p[mode], hp)
			o.grams[mode] = mat.Gram(o.model.Factors[mode])
		}
		// Keep the per-unit ring consistent for a later stale period.
		if o.RefreshEvery > 1 {
			for mode := 0; mode < tm; mode++ {
				o.p[mode].Zero()
			}
			for ti := 0; ti < w; ti++ {
				o.ring[ti] = o.sliceContribution(x, ti)
				o.addContribution(o.ring[ti], 1)
			}
		}
	} else {
		// Incremental (stale) path: expire exactly what was added, add the
		// entering unit under current factors, solve every mode from the
		// accumulated history — the growing-tensor OnlineSCP behaviour.
		o.addContribution(expiring, -1)
		o.ring[w-1] = o.sliceContribution(x, w-1)
		o.addContribution(o.ring[w-1], 1)
		for mode := 0; mode < tm; mode++ {
			hm := ridge(cpd.GramsExceptInto(o.hBuf, o.grams, mode))
			hp := mat.PseudoInverseSym(hm)
			o.model.Factors[mode] = mat.Mul(o.p[mode], hp)
			o.grams[mode] = mat.Gram(o.model.Factors[mode])
		}
	}

	// 4. Rebalance column scales across modes. Alternating refreshes are
	// prone to a scale spiral (one mode's columns exploding while
	// another's collapse, leaving the product unchanged); the reference
	// implementations counter it with normalization. Rebalancing
	// multiplies column k of mode n by s_n(k) with Π_n s_n(k) = 1, so the
	// model is unchanged, and the cached contributions are rescaled
	// consistently.
	o.rebalance()
}

// rebalance equalizes per-mode column norms to their geometric mean and
// rescales the accumulators to match (column k of a mode-m contribution
// scales by Π_{n≠m} s_n(k)).
func (o *OnlineSCP) rebalance() {
	order := o.model.Order()
	r := o.model.Rank()
	scale := make([][]float64, order)
	for n := range scale {
		scale[n] = make([]float64, r)
	}
	for k := 0; k < r; k++ {
		norms := make([]float64, order)
		logSum := 0.0
		ok := true
		for n, f := range o.model.Factors {
			norms[n] = mat.Norm2(f.Col(k))
			if norms[n] == 0 {
				ok = false
				break
			}
			logSum += math.Log(norms[n])
		}
		if !ok {
			for n := range scale {
				scale[n][k] = 1
			}
			continue
		}
		g := math.Exp(logSum / float64(order))
		for n := range scale {
			scale[n][k] = g / norms[n]
		}
	}
	for n, f := range o.model.Factors {
		for i := 0; i < f.Rows(); i++ {
			row := f.Row(i)
			for k := 0; k < r; k++ {
				row[k] *= scale[n][k]
			}
		}
		o.grams[n] = mat.Gram(f)
	}
	tm := order - 1
	for mode := 0; mode < tm; mode++ {
		colScale := make([]float64, r)
		for k := 0; k < r; k++ {
			s := 1.0
			for n := 0; n < order; n++ {
				if n != mode {
					s *= scale[n][k]
				}
			}
			colScale[k] = s
		}
		scaleColumns(o.p[mode], colScale)
		for _, ring := range o.ring {
			if ring != nil {
				scaleColumns(ring[mode], colScale)
			}
		}
	}
}

// ridge adds a small Tikhonov term λI (λ relative to the mean diagonal) in
// place and returns the matrix. On near-empty entering units the Gram
// products are close to singular; unregularized solves then amplify noise
// into factor blow-ups.
func ridge(h *mat.Dense) *mat.Dense {
	n := h.Rows()
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += h.At(i, i)
	}
	lambda := 1e-6*tr/float64(n) + 1e-12
	for i := 0; i < n; i++ {
		h.Add(i, i, lambda)
	}
	return h
}

func scaleColumns(m *mat.Dense, colScale []float64) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for k, s := range colScale {
			row[k] *= s
		}
	}
}
