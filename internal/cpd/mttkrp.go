package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// MTTKRP computes the matricized-tensor times Khatri-Rao product
// U = X_(mode) (⊙_{n≠mode} A⁽ⁿ⁾) for a sparse tensor without forming the
// Khatri-Rao product: each nonzero x_J adds
// x_J · (∗_{n≠mode} A⁽ⁿ⁾(j_n,:)) to row j_mode of U. Cost O(|X|·M·R).
//
// This is the dominant kernel of ALS (Eq. (4)) and of SNS_MAT
// (Algorithm 2, line 2). It allocates its result; repeated callers should
// hold buffers and use MTTKRPInto.
func MTTKRP(x *tensor.Sparse, factors []*mat.Dense, mode int) *mat.Dense {
	return MTTKRPInto(mat.New(factors[mode].Rows(), factors[0].Cols()), x, factors, mode)
}

// MTTKRPInto is MTTKRP into a preallocated dst (zeroed here), for callers
// that recompute whole-mode MTTKRPs repeatedly into held buffers (ALS
// sweeps, the streaming baselines). It is one flat pass over X's span
// (see sweep.go); the order-3 and order-4 passes allocate nothing.
func MTTKRPInto(dst *mat.Dense, x *tensor.Sparse, factors []*mat.Dense, mode int) *mat.Dense {
	dst.Zero()
	switch len(factors) {
	case 3:
		mttkrp3(dst, x, factors, mode)
	case 4:
		mttkrp4(dst, x, factors, mode)
	default:
		mttkrpAny(dst, x, factors, mode)
	}
	return dst
}

// MTTKRPRow computes one row of the MTTKRP:
// (X_(mode))(idx,:) (⊙_{n≠mode} A⁽ⁿ⁾), touching only the deg(mode,idx)
// nonzeros of the matricized row — the kernel of the SNS_VEC non-time
// update (Eq. (12)). It allocates its result; hot paths use
// MTTKRPRowInto.
func MTTKRPRow(x *tensor.Sparse, factors []*mat.Dense, mode, idx int) []float64 {
	r := factors[0].Cols()
	return MTTKRPRowInto(x, factors, mode, idx, make([]float64, r), make([]float64, r))
}

// MTTKRPRowInto is MTTKRPRow into preallocated buffers: dst receives the
// result, scratch holds the per-nonzero Khatri-Rao row. Both must have
// length R; dst and scratch must not alias. Allocation-free — this is the
// any-order reference form of the per-event row update kernel; trackers
// run the shape-specialized Kernels.MTTKRPRow, which is bit-identical.
func MTTKRPRowInto(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, scratch []float64) []float64 {
	for k := range dst {
		dst[k] = 0
	}
	x.ForEachInSlice(mode, idx, func(coord []int, v float64) {
		for k := range scratch {
			scratch[k] = v
		}
		for n, f := range factors {
			if n == mode {
				continue
			}
			fr := f.Row(coord[n])[:len(scratch)]
			for k := range scratch {
				scratch[k] *= fr[k]
			}
		}
		for k := range dst {
			dst[k] += scratch[k]
		}
	})
	return dst
}

// KRRow returns the Khatri-Rao row ∗_{n≠mode} A⁽ⁿ⁾(coord[n],:): the row of
// ⊙_{n≠mode} A⁽ⁿ⁾ selected by the coordinate. dst is reused when non-nil.
func KRRow(factors []*mat.Dense, coord []int, mode int, dst []float64) []float64 {
	r := factors[0].Cols()
	if dst == nil {
		dst = make([]float64, r)
	}
	for k := range dst {
		dst[k] = 1
	}
	for n, f := range factors {
		if n == mode {
			continue
		}
		fr := f.Row(coord[n])[:len(dst)]
		for k := range dst {
			dst[k] *= fr[k]
		}
	}
	return dst
}

// GramsExcept returns the Hadamard product H = ∗_{n≠mode} grams[n], the
// matrix inverted in every least-squares row update. It allocates its
// result; repeated callers should hold a buffer and use GramsExceptInto.
func GramsExcept(grams []*mat.Dense, mode int) *mat.Dense {
	r, _ := grams[0].Dims()
	return GramsExceptInto(mat.New(r, r), grams, mode)
}

// GramsExceptInto computes GramsExcept into a preallocated R×R dst and
// returns it — the allocation-free form used per event on the hot path.
// The order-3 case (two surviving grams) is fused into a single
// entrywise-product pass and the order-4 case into two, bit-identical to
// the copy-then-multiply chain.
func GramsExceptInto(dst *mat.Dense, grams []*mat.Dense, mode int) *mat.Dense {
	switch len(grams) {
	case 3:
		ma, mb := otherModes3(mode)
		mat.HadamardInto(dst, grams[ma], grams[mb])
		return dst
	case 4:
		ma, mb, mc := OtherModes4(mode)
		mat.HadamardInto(dst, grams[ma], grams[mb])
		mat.HadamardInPlace(dst, grams[mc])
		return dst
	}
	first := true
	for n, g := range grams {
		if n == mode {
			continue
		}
		if first {
			dst.CopyFrom(g)
			first = false
		} else {
			mat.HadamardInPlace(dst, g)
		}
	}
	if first {
		panic("cpd: GramsExceptInto with a single mode")
	}
	return dst
}
