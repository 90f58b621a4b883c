package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Whole-tensor sweeps: ⟨X, X̃⟩ (every fitness evaluation) and the
// whole-mode MTTKRP (every ALS mode update). Both are flat loops over the
// tensor's raw key/value span (tensor.Sparse.Span) that decode each mode
// index from the key and fetch each factor row once per nonzero — no
// closure call, coordinate slice or hash probe per nonzero. They keep the
// per-element floating-point chains of Model.Predict and of the
// scratch-buffer MTTKRP, and the span's visit order, so every result is
// bit-identical to the closure-per-nonzero forms they replaced
// (TestSweepsBitIdentical, TestALSRunBitIdentical):
//
//	inner product: p=λ_k; p*=a_k; p*=b_k; p*=c_k; s+=p   then ip += v·s
//	MTTKRP:        t=v;   t*=a_k; t*=b_k; o_k+=t         (non-mode rows, ascending mode)
//
// Order 3 — the paper's shape — has its own body with the three rows in
// named locals and two integer divisions per key, order 4 (the RideAustin
// shape) one with four rows and three divisions; other orders share the
// any-order loop. Fixed-rank stamps (as kernels_fixed.go has for the
// per-event row kernels) measured no faster here: the cost is the
// latency of the ordered s+=p chain, which a compile-time bound does not
// shorten.

// decode3 splits an order-3 key into its mode indices given the sizes of
// modes 1 and 2 (the strides are d1·d2, d2 and 1).
func decode3(key, d1, d2 uint64) (i0, i1, i2 int) {
	q := key / d2
	p := q / d1
	return int(p), int(q - p*d1), int(key - q*d2)
}

// decode4 splits an order-4 key into its mode indices given the sizes of
// modes 1, 2 and 3 (the strides are d1·d2·d3, d2·d3, d3 and 1).
func decode4(key, d1, d2, d3 uint64) (i0, i1, i2, i3 int) {
	q3 := key / d3
	q2 := q3 / d2
	q1 := q2 / d1
	return int(q1), int(q2 - q1*d1), int(q3 - q2*d2), int(key - q3*d3)
}

// innerProduct3 is ⟨X, X̃⟩ for an order-3 tensor.
func innerProduct3(x *tensor.Sparse, lam []float64, f []*mat.Dense) float64 {
	keys, vals := x.Span()
	vals = vals[:len(keys)]
	d1, d2 := uint64(x.Dim(1)), uint64(x.Dim(2))
	fa, fb, fc := f[0], f[1], f[2]
	s := 0.0
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		i0, i1, i2 := decode3(key, d1, d2)
		a := fa.Row(i0)[:len(lam)]
		b := fb.Row(i1)[:len(lam)]
		c := fc.Row(i2)[:len(lam)]
		pr := 0.0
		for k, p := range lam {
			p *= a[k]
			p *= b[k]
			p *= c[k]
			pr += p
		}
		s += vals[j] * pr
	}
	return s
}

// mttkrp3 accumulates the order-3 whole-mode MTTKRP into a zeroed dst.
func mttkrp3(dst *mat.Dense, x *tensor.Sparse, f []*mat.Dense, mode int) {
	keys, vals := x.Span()
	vals = vals[:len(keys)]
	d1, d2 := uint64(x.Dim(1)), uint64(x.Dim(2))
	r := dst.Cols()
	ma, mb := otherModes3(mode)
	fa, fb := f[ma], f[mb]
	var idx [3]int
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		idx[0], idx[1], idx[2] = decode3(key, d1, d2)
		v := vals[j]
		o := dst.Row(idx[mode])[:r]
		a := fa.Row(idx[ma])[:r]
		b := fb.Row(idx[mb])[:r]
		for k := range o {
			t := v * a[k]
			t *= b[k]
			o[k] += t
		}
	}
}

// innerProduct4 is ⟨X, X̃⟩ for an order-4 tensor.
func innerProduct4(x *tensor.Sparse, lam []float64, f []*mat.Dense) float64 {
	keys, vals := x.Span()
	vals = vals[:len(keys)]
	d1, d2, d3 := uint64(x.Dim(1)), uint64(x.Dim(2)), uint64(x.Dim(3))
	fa, fb, fc, fd := f[0], f[1], f[2], f[3]
	s := 0.0
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		i0, i1, i2, i3 := decode4(key, d1, d2, d3)
		a := fa.Row(i0)[:len(lam)]
		b := fb.Row(i1)[:len(lam)]
		c := fc.Row(i2)[:len(lam)]
		d := fd.Row(i3)[:len(lam)]
		pr := 0.0
		for k, p := range lam {
			p *= a[k]
			p *= b[k]
			p *= c[k]
			p *= d[k]
			pr += p
		}
		s += vals[j] * pr
	}
	return s
}

// mttkrp4 accumulates the order-4 whole-mode MTTKRP into a zeroed dst.
func mttkrp4(dst *mat.Dense, x *tensor.Sparse, f []*mat.Dense, mode int) {
	keys, vals := x.Span()
	vals = vals[:len(keys)]
	d1, d2, d3 := uint64(x.Dim(1)), uint64(x.Dim(2)), uint64(x.Dim(3))
	r := dst.Cols()
	ma, mb, mc := OtherModes4(mode)
	fa, fb, fc := f[ma], f[mb], f[mc]
	var idx [4]int
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		idx[0], idx[1], idx[2], idx[3] = decode4(key, d1, d2, d3)
		v := vals[j]
		o := dst.Row(idx[mode])[:r]
		a := fa.Row(idx[ma])[:r]
		b := fb.Row(idx[mb])[:r]
		c := fc.Row(idx[mc])[:r]
		for k := range o {
			t := v * a[k]
			t *= b[k]
			t *= c[k]
			o[k] += t
		}
	}
}

// sweepDecoder decodes keys of any order into mode indices (the last mode
// has stride 1), reusing one index buffer.
type sweepDecoder struct {
	dims []uint64
	idx  []int
}

func newSweepDecoder(x *tensor.Sparse) sweepDecoder {
	d := sweepDecoder{dims: make([]uint64, x.Order()), idx: make([]int, x.Order())}
	for m := range d.dims {
		d.dims[m] = uint64(x.Dim(m))
	}
	return d
}

func (d sweepDecoder) decode(key uint64) []int {
	for m := len(d.dims) - 1; m >= 0; m-- {
		q := key / d.dims[m]
		d.idx[m] = int(key - q*d.dims[m])
		key = q
	}
	return d.idx
}

// innerProductAny is ⟨X, X̃⟩ for any order. The per-k products are built
// mode by mode in a scratch row (each element still sees p=λ_k, then the
// factor entries in ascending mode order) and summed in ascending k.
func innerProductAny(x *tensor.Sparse, lam []float64, f []*mat.Dense) float64 {
	keys, vals := x.Span()
	vals = vals[:len(keys)]
	dec := newSweepDecoder(x)
	p := make([]float64, len(lam))
	s := 0.0
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		idx := dec.decode(key)
		copy(p, lam)
		for m, fm := range f {
			row := fm.Row(idx[m])[:len(p)]
			for k := range p {
				p[k] *= row[k]
			}
		}
		pr := 0.0
		for _, pk := range p {
			pr += pk
		}
		s += vals[j] * pr
	}
	return s
}

// mttkrpAny accumulates the whole-mode MTTKRP of any order into a zeroed
// dst, building each Khatri-Rao row mode by mode in a scratch row.
func mttkrpAny(dst *mat.Dense, x *tensor.Sparse, f []*mat.Dense, mode int) {
	keys, vals := x.Span()
	vals = vals[:len(keys)]
	dec := newSweepDecoder(x)
	t := make([]float64, dst.Cols())
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		idx := dec.decode(key)
		for k := range t {
			t[k] = vals[j]
		}
		for n, fn := range f {
			if n == mode {
				continue
			}
			row := fn.Row(idx[n])[:len(t)]
			for k := range t {
				t[k] *= row[k]
			}
		}
		o := dst.Row(idx[mode])[:len(t)]
		for k, tk := range t {
			o[k] += tk
		}
	}
}
