package cpd

import (
	"math"
	"math/rand"
	"testing"

	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// kernelTestSetup builds a small tensor of the given shape with nnz
// mixed-sign values of wildly varying magnitudes (1e-30..1e+3) plus
// matching random factors — adversarial inputs for floating-point
// identity.
func kernelTestSetup(t *testing.T, dims []int, nnz, r int, seed int64) (*tensor.Sparse, []*mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewSparse(dims)
	coord := make([]int, len(dims))
	for i := 0; i < nnz; i++ {
		for m, n := range dims {
			coord[m] = rng.Intn(n)
		}
		mag := math.Pow(10, float64(rng.Intn(34))-30)
		x.Set(coord, (rng.Float64()*2-1)*mag)
	}
	factors := make([]*mat.Dense, len(dims))
	for m, n := range dims {
		factors[m] = mat.New(n, r)
		for i := 0; i < n; i++ {
			row := factors[m].Row(i)
			for k := range row {
				row[k] = rng.NormFloat64()
			}
		}
	}
	return x, factors
}

// TestKernelsBitIdentical holds the contract stated on Kernels: every
// shape-specialized kernel ForShape selects — the fixed-rank stamps for
// R ∈ {8, 10, 16, 20}, the runtime-rank order-3 forms for every other
// rank, and the order-4 forms — produces results bit-identical
// (math.Float64bits equal) to the generic reference implementations.
func TestKernelsBitIdentical(t *testing.T) {
	for _, r := range []int{7, 8, 10, 16, 20} {
		x, factors := kernelTestSetup(t, []int{13, 9, 5}, 150, r, int64(100+r))
		kern := ForShape(3, r)
		wantFixed := r == 8 || r == 10 || r == 16 || r == 20
		if kern.Fixed != wantFixed {
			t.Fatalf("R=%d: Fixed=%v want %v", r, kern.Fixed, wantFixed)
		}

		// MTTKRPRow vs the any-order reference, every mode and row.
		got := make([]float64, r)
		scratch := make([]float64, r)
		want := make([]float64, r)
		wScratch := make([]float64, r)
		for m := 0; m < 3; m++ {
			for i := 0; i < x.Dim(m); i++ {
				kern.MTTKRPRow(x, factors, m, i, got, scratch)
				MTTKRPRowInto(x, factors, m, i, want, wScratch)
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("R=%d MTTKRPRow mode=%d row=%d k=%d: %x != %x (%g vs %g)",
							r, m, i, k, math.Float64bits(got[k]), math.Float64bits(want[k]), got[k], want[k])
					}
				}
			}
		}

		// KRAxpy3 vs KRRow followed by an explicit axpy.
		rng := rand.New(rand.NewSource(int64(200 + r)))
		coord := make([]int, 3)
		for m := 0; m < 3; m++ {
			for trial := 0; trial < 25; trial++ {
				for n := 0; n < 3; n++ {
					coord[n] = rng.Intn(x.Dim(n))
				}
				s := rng.NormFloat64()
				for k := 0; k < r; k++ {
					got[k] = rng.NormFloat64()
					want[k] = got[k]
				}
				ma, mb := OtherModes3(m)
				kern.KRAxpy3(got, s, factors[ma].Row(coord[ma]), factors[mb].Row(coord[mb]))
				kr := KRRow(factors, coord, m, wScratch)
				for k := range want {
					want[k] += s * kr[k]
				}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("R=%d KRAxpy3 mode=%d k=%d: %g != %g", r, m, k, got[k], want[k])
					}
				}
			}
		}

		// Predict3 vs the scratch-buffer product chain (KRRow over two
		// modes then a dot with the third, as the generic predict performs).
		for trial := 0; trial < 50; trial++ {
			for n := 0; n < 3; n++ {
				coord[n] = rng.Intn(x.Dim(n))
			}
			a := factors[0].Row(coord[0])
			b := factors[1].Row(coord[1])
			c := factors[2].Row(coord[2])
			gotV := kern.Predict3(a, b, c)
			wantV := 0.0
			for k := 0; k < r; k++ {
				tt := a[k] * b[k]
				tt *= c[k]
				wantV += tt
			}
			if math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("R=%d Predict3: %g != %g", r, gotV, wantV)
			}
		}
	}
	for _, r := range []int{7, 8, 20} {
		checkKernelsBitIdentical4(t, r)
	}
}

// checkKernelsBitIdentical4 holds the Kernels contract for the fused
// order-4 forms at rank r: MTTKRPRow against MTTKRPRowInto, KRAxpy4
// against KRRow followed by an axpy, and Predict4 against the generic
// predict loop (p=1; p*=row_n[k] over the four rows; s+=p), all
// Float64bits-equal.
func checkKernelsBitIdentical4(t *testing.T, r int) {
	t.Helper()
	x, factors := kernelTestSetup(t, []int{11, 7, 6, 4}, 200, r, int64(300+r))
	kern := ForShape(4, r)

	got := make([]float64, r)
	scratch := make([]float64, r)
	want := make([]float64, r)
	wScratch := make([]float64, r)
	same := func(what string, m int) {
		t.Helper()
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("R=%d %s mode=%d k=%d: %g != %g", r, what, m, k, got[k], want[k])
			}
		}
	}
	for m := 0; m < 4; m++ {
		for i := 0; i < x.Dim(m); i++ {
			kern.MTTKRPRow(x, factors, m, i, got, scratch)
			MTTKRPRowInto(x, factors, m, i, want, wScratch)
			same("MTTKRPRow", m)
		}
	}

	rng := rand.New(rand.NewSource(int64(400 + r)))
	coord := make([]int, 4)
	for m := 0; m < 4; m++ {
		for trial := 0; trial < 25; trial++ {
			for n := 0; n < 4; n++ {
				coord[n] = rng.Intn(x.Dim(n))
			}
			s := rng.NormFloat64()
			for k := 0; k < r; k++ {
				got[k] = rng.NormFloat64()
				want[k] = got[k]
			}
			ma, mb, mc := OtherModes4(m)
			kern.KRAxpy4(got, s, factors[ma].Row(coord[ma]), factors[mb].Row(coord[mb]), factors[mc].Row(coord[mc]))
			kr := KRRow(factors, coord, m, wScratch)
			for k := range want {
				want[k] += s * kr[k]
			}
			same("KRAxpy4", m)
		}
	}

	rows := make([][]float64, 4)
	for trial := 0; trial < 50; trial++ {
		for n := 0; n < 4; n++ {
			rows[n] = factors[n].Row(rng.Intn(x.Dim(n)))
		}
		gotV := kern.Predict4(rows[0], rows[1], rows[2], rows[3])
		wantV := 0.0
		for k := 0; k < r; k++ {
			p := 1.0
			for _, row := range rows {
				p *= row[k]
			}
			wantV += p
		}
		if math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("R=%d Predict4: %g != %g", r, gotV, wantV)
		}
	}
}

// TestGramsExceptIntoBitIdentical: the fused order-3 and order-4 forms
// of GramsExceptInto equal the generic copy-then-multiply chain
// (ascending mode order) bit for bit.
func TestGramsExceptIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, order := range []int{3, 4} {
		grams := make([]*mat.Dense, order)
		for n := range grams {
			grams[n] = mat.New(7, 7)
			d := grams[n].Data()
			for j := range d {
				d[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		got := mat.New(7, 7)
		for mode := 0; mode < order; mode++ {
			GramsExceptInto(got, grams, mode)
			var want *mat.Dense
			for n, g := range grams {
				switch {
				case n == mode:
				case want == nil:
					want = g.Clone()
				default:
					mat.HadamardInPlace(want, g)
				}
			}
			for j, v := range want.Data() {
				if math.Float64bits(got.Data()[j]) != math.Float64bits(v) {
					t.Fatalf("order %d mode %d entry %d: %g != %g", order, mode, j, got.Data()[j], v)
				}
			}
		}
	}
}

// TestForShapeFallbacks: order 4 gets its fused runtime-rank kernels and
// no order-3 ones; other orders get the any-order reference and no fused
// kernels at all.
func TestForShapeFallbacks(t *testing.T) {
	k := ForShape(4, 8)
	if k.Fixed || k.KRAxpy3 != nil || k.Predict3 != nil {
		t.Fatal("order-4 shape must not select order-3 kernels")
	}
	if k.MTTKRPRow == nil || k.KRAxpy4 == nil || k.Predict4 == nil {
		t.Fatal("order-4 shape must provide MTTKRPRow, KRAxpy4 and Predict4")
	}
	for _, order := range []int{2, 5} {
		k := ForShape(order, 8)
		if k.Fixed || k.KRAxpy3 != nil || k.Predict3 != nil || k.KRAxpy4 != nil || k.Predict4 != nil {
			t.Fatalf("order-%d shape must not select fused kernels", order)
		}
		if k.MTTKRPRow == nil {
			t.Fatalf("order-%d shape must still provide MTTKRPRow", order)
		}
	}
}
