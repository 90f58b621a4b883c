package core

import (
	"math"
	"math/rand"
	"testing"

	"slicenstitch/internal/cpd"
	"slicenstitch/internal/rng"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/window"
)

// TestSNSRndPlusSampledMatchesBruteForce validates the Eq. (23) sampled
// coordinate-descent path against a literal implementation: the target
// tensor is X̃ + X̄ (+ΔX), i.e. the event-start model everywhere except the
// sampled nonzeros, and each coordinate is solved by an explicit 1-D least
// squares over the full dense slice, followed by clipping.
func TestSNSRndPlusSampledMatchesBruteForce(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		win, init, _ := primedSetup(rand.New(rand.NewSource(trial)), []int{4, 3}, 3, 4, 3)
		const theta = 2
		const eta = 50.0
		seed := 1000 + trial
		dec := NewSNSRndPlus(win, init, theta, eta, seed)

		m, i := 0, 1
		deg := win.X().Deg(m, i)
		if deg <= theta {
			continue // exact path; covered elsewhere
		}

		// Predict the exact sample set with an identically-seeded RNG (the
		// decomposer has not consumed any draws yet).
		shadowRng := rng.New(seed)
		sampleKeys := sampleCellsForTest(win.X(), m, i, theta, shadowRng, nil)
		sampled := map[uint64]struct{}{}
		for _, k := range sampleKeys {
			sampled[k] = struct{}{}
		}

		// Event-start model.
		prev := dec.Model().Clone()

		// Brute-force coordinate descent on the dense slice.
		want := append([]float64(nil), dec.Model().Factors[m].Row(i)...)
		cur := dec.Model().Clone() // evolves row i as coordinates move
		shape := cur.Shape()
		rank := cur.Rank()
		for k := 0; k < rank; k++ {
			num, den := 0.0, 0.0
			coord := []int{i, 0, 0}
			for j1 := 0; j1 < shape[1]; j1++ {
				for j2 := 0; j2 < shape[2]; j2++ {
					coord[1], coord[2] = j1, j2
					// Target under X̃ + X̄ (no ΔX in this direct call).
					target := prev.Predict(coord)
					if _, ok := sampled[win.X().Key(coord)]; ok {
						target = win.X().At(coord)
					}
					// Khatri-Rao coefficient and prediction minus k-th part.
					kr := cur.Factors[1].Row(j1)[k] * cur.Factors[2].Row(j2)[k]
					predMinusK := cur.Predict(coord) - cur.Factors[0].Row(i)[k]*kr
					num += (target - predMinusK) * kr
					den += kr * kr
				}
			}
			if den < 1e-300 {
				continue
			}
			v := num / den
			if v > eta {
				v = eta
			}
			if v < -eta {
				v = -eta
			}
			want[k] = v
			cur.Factors[0].Row(i)[k] = v
		}

		// Run the real update (empty ΔX: direct row call).
		dec.beginEvent(window.Change{Tuple: stream.Tuple{Coord: []int{i, 0}}})
		dec.updateRow(m, i, window.Change{Tuple: stream.Tuple{Coord: []int{i, 0}}})
		got := dec.Model().Factors[m].Row(i)

		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-6*(1+math.Abs(want[k])) {
				t.Fatalf("trial %d: coordinate %d: got %g want %g (deg=%d)", trial, k, got[k], want[k], deg)
			}
		}
	}
}

// TestSNSRndSampledMatchesBruteForce validates the Eq. (16) sampled LS row
// update the same way: the row must equal the least-squares solution
// against the target X̃ + X̄ over the full dense slice.
func TestSNSRndSampledMatchesBruteForce(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		win, init, _ := primedSetup(rand.New(rand.NewSource(20+trial)), []int{4, 3}, 3, 4, 3)
		const theta = 2
		seed := 2000 + trial
		dec := NewSNSRnd(win, init, theta, seed)

		m, i := 0, 2
		deg := win.X().Deg(m, i)
		if deg <= theta {
			continue
		}

		shadowRng := rng.New(seed)
		sampleKeys := sampleCellsForTest(win.X(), m, i, theta, shadowRng, nil)
		sampled := map[uint64]struct{}{}
		for _, k := range sampleKeys {
			sampled[k] = struct{}{}
		}
		prev := dec.Model().Clone()

		// Brute force: LS solution of min ‖target_slice − a·Kᵀ‖ where K is
		// the Khatri-Rao of the other factors (current = prev here: this
		// is the first row the event touches).
		shape := prev.Shape()
		rank := prev.Rank()
		// Normal equations: a = (Σ_J target_J k_J) (Σ_J k_J k_Jᵀ)⁻¹.
		u := make([]float64, rank)
		h := make([][]float64, rank)
		for r := range h {
			h[r] = make([]float64, rank)
		}
		coord := []int{i, 0, 0}
		for j1 := 0; j1 < shape[1]; j1++ {
			for j2 := 0; j2 < shape[2]; j2++ {
				coord[1], coord[2] = j1, j2
				target := prev.Predict(coord)
				if _, ok := sampled[win.X().Key(coord)]; ok {
					target = win.X().At(coord)
				}
				for r := 0; r < rank; r++ {
					kr := prev.Factors[1].Row(j1)[r] * prev.Factors[2].Row(j2)[r]
					u[r] += target * kr
					for s := 0; s < rank; s++ {
						ks := prev.Factors[1].Row(j1)[s] * prev.Factors[2].Row(j2)[s]
						h[r][s] += kr * ks
					}
				}
			}
		}
		want := solveDense(h, u)

		dec.beginEvent(window.Change{Tuple: stream.Tuple{Coord: []int{i, 0}}})
		dec.updateRow(m, i, window.Change{Tuple: stream.Tuple{Coord: []int{i, 0}}})
		got := dec.Model().Factors[m].Row(i)

		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-5*(1+math.Abs(want[k])) {
				t.Fatalf("trial %d: coordinate %d: got %g want %g (deg=%d)", trial, k, got[k], want[k], deg)
			}
		}
	}
}

// solveDense solves h·x = u by Gaussian elimination with partial pivoting
// (test-only helper).
func solveDense(h [][]float64, u []float64) []float64 {
	n := len(u)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append(append([]float64(nil), h[i]...), u[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.Abs(a[i][i]) > 1e-12 {
			x[i] = a[i][n] / a[i][i]
		}
	}
	return x
}

// TestOrder4FusedKernelsMatchGeneric: on an order-4 window every
// outline variant running the fused order-4 kernels ForShape selects
// ends bit-identical — factors and maintained Grams — to the same
// variant running the generic any-order kernels (MTTKRPRowInto, KRRow +
// axpy, the generic predictPrev loop).
func TestOrder4FusedKernelsMatchGeneric(t *testing.T) {
	for _, rank := range []int{3, 20} {
		win, init, rest := primedSetup(rand.New(rand.NewSource(21)), []int{5, 4, 3}, 3, 3, rank)
		mk := map[string]func() Decomposer{
			"vec":  func() Decomposer { return NewSNSVec(win, init) },
			"rnd":  func() Decomposer { return NewSNSRnd(win, init, 4, 5) },
			"vec+": func() Decomposer { return NewSNSVecPlus(win, init, 100) },
			"rnd+": func() Decomposer { return NewSNSRndPlus(win, init, 4, 100, 5) },
		}
		type pair struct{ fused, generic Decomposer }
		pairs := map[string]pair{}
		for name, f := range mk {
			p := pair{f(), f()}
			if baseOf(p.fused).kern.KRAxpy4 == nil {
				t.Fatalf("%s: order-4 tracker did not select the fused kernels", name)
			}
			baseOf(p.generic).kern = &cpd.Kernels{Order: 4, Rank: rank, MTTKRPRow: cpd.MTTKRPRowInto}
			pairs[name] = p
		}
		win.Drive(rest, win.Now()+40, func(ch window.Change) {
			for _, p := range pairs {
				p.fused.Apply(ch)
				p.generic.Apply(ch)
			}
		})
		for name, p := range pairs {
			bf, bg := baseOf(p.fused), baseOf(p.generic)
			for m := range bf.model.Factors {
				sameBits(t, name+" factor", bf.model.Factors[m].Data(), bg.model.Factors[m].Data())
				sameBits(t, name+" gram", bf.grams[m].Data(), bg.grams[m].Data())
			}
		}
	}
}

// sameBits fails unless a and b are Float64bits-equal entry by entry.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("%s entry %d: %g != %g", what, j, a[j], b[j])
		}
	}
}
