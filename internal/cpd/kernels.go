package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Kernels bundles the rank-critical inner kernels of the per-event row
// updates, selected once at tracker construction for the model's
// (order, rank) shape. Every specialization is bit-identical to the
// generic reference implementations in this package (MTTKRPRowInto,
// KRRow, the predictPrev loop): the fixed-rank bodies perform the exact
// same per-element floating-point operation chains in the exact same
// order, only with compile-time loop bounds so the compiler drops the
// bounds checks and loop-carried overhead. TestKernelsBitIdentical holds
// that contract.
//
// Order-3 tensors (two non-time modes plus time — the paper's default
// shape) additionally get fused three-operand kernels (KRAxpy3,
// Predict3) that collapse the Khatri-Rao scratch pass into the consuming
// loop; order-4 tensors get the four-operand forms (KRAxpy4, Predict4)
// and a span-iterating MTTKRPRow, all with runtime rank. For other orders
// those fields are nil and callers fall back to the generic path.
type Kernels struct {
	Order, Rank int
	// Fixed reports whether fixed-rank specializations were selected
	// (order 3 and R ∈ {8, 10, 16, 20} — the benchmark and paper ranks).
	Fixed bool
	// MTTKRPRow computes the (mode,idx) row of the MTTKRP into dst,
	// bit-identically to MTTKRPRowInto. scratch must have length R and is
	// only written by the generic fallback.
	MTTKRPRow func(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, scratch []float64) []float64
	// KRAxpy3 (order 3 only, nil otherwise) accumulates one Khatri-Rao
	// term: dst[k] += s·(a[k]·b[k]), the fused form of KRRow followed by
	// an axpy with the two non-mode factor rows a, b (ascending mode
	// order).
	KRAxpy3 func(dst []float64, s float64, a, b []float64)
	// Predict3 (order 3 only, nil otherwise) evaluates the rank-R inner
	// product Σ_k a[k]·b[k]·c[k] — one x̃_J under factor rows a, b, c
	// (ascending mode order).
	Predict3 func(a, b, c []float64) float64
	// KRAxpy4 (order 4 only, nil otherwise) is the order-4 KRAxpy3:
	// dst[k] += s·((a[k]·b[k])·c[k]) with the three non-mode factor rows
	// in ascending mode order — KRRow's ((1·a)·b)·c chain, since 1·a = a
	// exactly.
	KRAxpy4 func(dst []float64, s float64, a, b, c []float64)
	// Predict4 (order 4 only, nil otherwise) evaluates
	// Σ_k ((a[k]·b[k])·c[k])·d[k] under factor rows a, b, c, d (ascending
	// mode order).
	Predict4 func(a, b, c, d []float64) float64
}

// ForShape selects the kernel set for a model of the given order and
// rank. The result is shared, immutable, and safe for concurrent use.
func ForShape(order, rank int) *Kernels {
	k := &Kernels{Order: order, Rank: rank}
	if order == 4 {
		k.MTTKRPRow = mttkrpRow4Any
		k.KRAxpy4 = krAxpy4Any
		k.Predict4 = predict4Any
		return k
	}
	if order != 3 {
		k.MTTKRPRow = MTTKRPRowInto
		return k
	}
	switch rank {
	case 8:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R8
		k.KRAxpy3 = krAxpy3R8
		k.Predict3 = predict3R8
	case 10:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R10
		k.KRAxpy3 = krAxpy3R10
		k.Predict3 = predict3R10
	case 16:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R16
		k.KRAxpy3 = krAxpy3R16
		k.Predict3 = predict3R16
	case 20:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R20
		k.KRAxpy3 = krAxpy3R20
		k.Predict3 = predict3R20
	default:
		k.MTTKRPRow = mttkrpRow3Any
		k.KRAxpy3 = krAxpy3Any
		k.Predict3 = predict3Any
	}
	return k
}

// OtherModes3 returns the two non-mode indices of an order-3 tensor in
// ascending order — the factor iteration order of the generic kernels,
// which the fused forms (and their callers selecting the two non-mode
// factor rows) must preserve for bit-identity.
func OtherModes3(mode int) (int, int) { return otherModes3(mode) }

func otherModes3(mode int) (int, int) {
	switch mode {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// OtherModes4 is OtherModes3 for an order-4 tensor: the three non-mode
// indices in ascending order.
func OtherModes4(mode int) (int, int, int) {
	switch mode {
	case 0:
		return 1, 2, 3
	case 1:
		return 0, 2, 3
	case 2:
		return 0, 1, 3
	default:
		return 0, 1, 2
	}
}

// mttkrpRow3Any is the order-3 MTTKRP row with runtime rank: the generic
// reference fused into a single pass per nonzero (t = (v·a_k)·b_k matches
// the scratch-buffer chain of MTTKRPRowInto exactly) and iterated over
// the raw slice span so no closure call is paid per nonzero.
func mttkrpRow3Any(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	for k := range dst {
		dst[k] = 0
	}
	ma, mb := otherModes3(mode)
	fa, fb := factors[ma], factors[mb]
	sa, sb := x.Stride(ma), x.Stride(mb)
	da, db := uint64(x.Dim(ma)), uint64(x.Dim(mb))
	for _, key := range x.SliceSpan(mode, idx) {
		if key == tensor.Tombstone {
			continue
		}
		v := x.AtKey(key)
		ra := fa.Row(int(key / sa % da))[:len(dst)]
		rb := fb.Row(int(key / sb % db))[:len(dst)]
		for k := range dst {
			t := v * ra[k]
			t *= rb[k]
			dst[k] += t
		}
	}
	return dst
}

// krAxpy3Any: dst[k] += s·(a[k]·b[k]) with runtime rank.
func krAxpy3Any(dst []float64, s float64, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for k := range dst {
		t := a[k] * b[k]
		dst[k] += s * t
	}
}

// predict3Any: Σ_k (a[k]·b[k])·c[k] with runtime rank.
func predict3Any(a, b, c []float64) float64 {
	b = b[:len(a)]
	c = c[:len(a)]
	s := 0.0
	for k := range a {
		t := a[k] * b[k]
		t *= c[k]
		s += t
	}
	return s
}

// mttkrpRow4Any is mttkrpRow3Any for an order-4 tensor:
// t = ((v·a_k)·b_k)·c_k per nonzero, the scratch-buffer chain of
// MTTKRPRowInto.
func mttkrpRow4Any(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	for k := range dst {
		dst[k] = 0
	}
	ma, mb, mc := OtherModes4(mode)
	fa, fb, fc := factors[ma], factors[mb], factors[mc]
	sa, sb, sc := x.Stride(ma), x.Stride(mb), x.Stride(mc)
	da, db, dc := uint64(x.Dim(ma)), uint64(x.Dim(mb)), uint64(x.Dim(mc))
	for _, key := range x.SliceSpan(mode, idx) {
		if key == tensor.Tombstone {
			continue
		}
		v := x.AtKey(key)
		ra := fa.Row(int(key / sa % da))[:len(dst)]
		rb := fb.Row(int(key / sb % db))[:len(dst)]
		rc := fc.Row(int(key / sc % dc))[:len(dst)]
		for k := range dst {
			t := v * ra[k]
			t *= rb[k]
			t *= rc[k]
			dst[k] += t
		}
	}
	return dst
}

// krAxpy4Any: dst[k] += s·((a[k]·b[k])·c[k]) with runtime rank.
func krAxpy4Any(dst []float64, s float64, a, b, c []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	for k := range dst {
		t := a[k] * b[k]
		t *= c[k]
		dst[k] += s * t
	}
}

// predict4Any: Σ_k ((a[k]·b[k])·c[k])·d[k] with runtime rank.
func predict4Any(a, b, c, d []float64) float64 {
	b = b[:len(a)]
	c = c[:len(a)]
	d = d[:len(a)]
	s := 0.0
	for k := range a {
		t := a[k] * b[k]
		t *= c[k]
		t *= d[k]
		s += t
	}
	return s
}
