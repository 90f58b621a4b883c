package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// RefInnerProduct is the closure-per-nonzero ⟨X, X̃⟩ that Model.InnerProduct
// replaced, kept as the bit-identity oracle of the flat sweeps.
func RefInnerProduct(m *Model, x *tensor.Sparse) float64 {
	s := 0.0
	x.ForEachNonzero(func(coord []int, v float64) {
		s += v * m.Predict(coord)
	})
	return s
}

// RefMTTKRPInto is the closure-per-nonzero MTTKRPInto body the flat sweeps
// replaced, kept as their bit-identity oracle. scratch must have length R.
func RefMTTKRPInto(dst *mat.Dense, x *tensor.Sparse, factors []*mat.Dense, mode int, scratch []float64) *mat.Dense {
	dst.Zero()
	x.ForEachNonzero(func(coord []int, v float64) {
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
		o := dst.Row(coord[mode])[:len(scratch)]
		for k := range scratch {
			o[k] += scratch[k]
		}
	})
	return dst
}
