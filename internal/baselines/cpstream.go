package baselines

import (
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// CPStream re-implements Smith et al.'s CP-stream [15] adapted to the
// sliding tensor window. Once per period it
//
//  1. solves the newest temporal row s_t by least squares against the
//     entering slice,
//  2. folds the slice into exponentially-forgotten history accumulators
//     C⁽ᵐ⁾ ← μC⁽ᵐ⁾ + Y_(m)·(K ∗ s_t) and G⁽ᵐ⁾ ← μG⁽ᵐ⁾ + H ∗ s_tᵀs_t,
//  3. re-solves every non-temporal factor A⁽ᵐ⁾ = C⁽ᵐ⁾ G⁽ᵐ⁾†.
//
// The forgetting factor μ plays the role of CP-stream's historical
// proximity term; μ = 1 − 1/W makes the effective memory match the window
// length. The temporal factor keeps the last W solved rows so the model can
// be scored against the window.
type CPStream struct {
	model *cpd.Model
	grams []*mat.Dense
	c     []*mat.Dense // C accumulators (nil for the temporal mode)
	g     []*mat.Dense // G accumulators (nil for the temporal mode)
	// Mu is the forgetting factor μ ∈ (0,1].
	Mu    float64
	krBuf []float64
	uBuf  []float64
	hBuf  *mat.Dense
}

// NewCPStream builds the baseline from the initial window and model.
// mu ≤ 0 selects the default 1 − 1/W.
func NewCPStream(x0 *tensor.Sparse, init *cpd.Model, mu float64) *CPStream {
	m := init.Clone()
	cpd.FoldLambda(m)
	tm := m.Order() - 1
	w := m.Factors[tm].Rows()
	if mu <= 0 {
		mu = 1 - 1/float64(w)
	}
	s := &CPStream{
		model: m,
		grams: m.Grams(),
		Mu:    mu,
		krBuf: make([]float64, m.Rank()),
		uBuf:  make([]float64, m.Rank()),
		hBuf:  mat.New(m.Rank(), m.Rank()),
	}
	s.c = make([]*mat.Dense, m.Order())
	s.g = make([]*mat.Dense, m.Order())
	for mode := 0; mode < tm; mode++ {
		// Start the history from the initial window; the Into targets
		// become the owned accumulators.
		s.c[mode] = cpd.MTTKRPInto(mat.New(m.Factors[mode].Rows(), m.Rank()), x0, m.Factors, mode)
		s.g[mode] = cpd.GramsExceptInto(mat.New(m.Rank(), m.Rank()), s.grams, mode)
	}
	return s
}

// Name returns "CP-stream".
func (s *CPStream) Name() string { return "CP-stream" }

// Model returns the live model.
func (s *CPStream) Model() *cpd.Model { return s.model }

// OnPeriod performs one CP-stream step on the entering slice.
func (s *CPStream) OnPeriod(x *tensor.Sparse) {
	tm := s.model.Order() - 1
	w := s.model.Factors[tm].Rows()
	at := s.model.Factors[tm]

	// 1. Newest temporal row from the entering slice.
	h := cpd.GramsExceptInto(s.hBuf, s.grams, tm)
	u := cpd.MTTKRPRowInto(x, s.model.Factors, tm, w-1, s.uBuf, s.krBuf)
	st := mat.SolveSym(h, u)

	// 2. Shift the temporal ring and append s_t.
	for i := 0; i+1 < w; i++ {
		copy(at.Row(i), at.Row(i+1))
	}
	at.SetRow(w-1, st)
	s.grams[tm] = mat.Gram(at)

	// s_tᵀ s_t as an R×R outer product.
	r := s.model.Rank()
	outer := mat.New(r, r)
	for i := 0; i < r; i++ {
		oi := outer.Row(i)
		for j := 0; j < r; j++ {
			oi[j] = st[i] * st[j]
		}
	}

	// 3. Fold the slice into the history and re-solve non-temporal modes.
	for mode := 0; mode < tm; mode++ {
		s.c[mode].Scale(s.Mu)
		x.ForEachInSlice(tm, w-1, func(coord []int, v float64) {
			// ∗_{n∉{mode,tm}} A⁽ⁿ⁾(j_n,:) ∗ s_t — the temporal row of the
			// entering slice is s_t, which is exactly at.Row(w−1), so the
			// generic Khatri-Rao row already includes it.
			kr := cpd.KRRow(s.model.Factors, coord, mode, s.krBuf)
			row := s.c[mode].Row(coord[mode])
			for k := range row {
				row[k] += v * kr[k]
			}
		})
		// G⁽ᵐ⁾ ← μG⁽ᵐ⁾ + (∗_{n∉{mode,tm}} Q⁽ⁿ⁾) ∗ s_tᵀs_t.
		s.g[mode].Scale(s.Mu)
		inc := outer.Clone()
		for n := 0; n < tm; n++ {
			if n == mode {
				continue
			}
			mat.HadamardInPlace(inc, s.grams[n])
		}
		gd := s.g[mode].Data()
		for i, v := range inc.Data() {
			gd[i] += v
		}
		gp := mat.PseudoInverseSym(s.g[mode])
		s.model.Factors[mode] = mat.Mul(s.c[mode], gp)
		s.grams[mode] = mat.Gram(s.model.Factors[mode])
	}
}
