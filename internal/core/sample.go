package core

import (
	"slicenstitch/internal/rng"
	"slicenstitch/internal/tensor"
)

// cellSample is one θ-sample of slice cells: the accepted keys in draw
// order and, flat beside them, their coordinates — order ints per key, so
// cell j's coordinate is coords[j·order : (j+1)·order]. The sampler
// already builds each coordinate to encode its key, so the sampled row
// solves read it from here instead of decoding the key again.
type cellSample struct {
	keys   []uint64
	coords []int
}

// coord returns the coordinate of sampled cell j of an order-`order`
// tensor.
func (s *cellSample) coord(j, order int) []int {
	return s.coords[j*order : j*order+order : j*order+order]
}

// sampleSliceCells draws up to theta distinct cells uniformly at random
// from the dense slice {J : j_m = i} of x — Algorithm 4 line 12: "θ indices
// of X chosen uniformly at random, while fixing the m-th mode index to i_m".
// The sample space is every cell of the slice, zeros included: the zero
// cells' residuals (−x̃_J) are what balance the nonzero cells' corrections;
// sampling only nonzeros would bias every update upward and diverge on
// sparse streams. Keys in exclude (the ΔX cells, footnote 2) are skipped.
// When the slice has no more than theta cells, all (non-excluded) cells are
// returned, making X̃+X̄ exact on the slice.
//
// The accepted keys and their coordinates are written to out (its buffers
// reused). seen is the duplicate filter and coord an order-M coordinate
// scratch, both caller-owned, so the sampler allocates nothing in steady
// state. seen starts each call holding the excluded keys, so one exact
// lookup per draw rejects both duplicates and exclusions — the same
// accept/reject sequence, and the same RNG draws, as scanning the accepted
// and excluded lists.
func sampleSliceCells(x *tensor.Sparse, m, i, theta int, rng *rng.RNG, exclude []uint64, out *cellSample, seen *tensor.StampedSet, coord []int) {
	order := x.Order()
	total := 1
	for n := 0; n < order; n++ {
		if n == m {
			continue
		}
		total *= x.Dim(n)
		if total > 1<<30 {
			total = 1 << 30 // cap: plenty to guarantee the sampling path
			break
		}
	}
	out.keys = out.keys[:0]
	out.coords = out.coords[:0]
	seen.Reset(min(theta, total) + len(exclude))
	for _, k := range exclude {
		seen.Add(k)
	}
	for n := range coord {
		coord[n] = 0
	}
	coord[m] = i
	if total <= theta {
		// Enumerate the whole slice in lexicographic order (last mode
		// fastest) with an odometer — closure-free so nothing escapes.
		for {
			if k := x.Key(coord); seen.Add(k) {
				out.keys = append(out.keys, k)
				out.coords = append(out.coords, coord...)
			}
			n := order - 1
			for n >= 0 {
				if n == m {
					n--
					continue
				}
				coord[n]++
				if coord[n] < x.Dim(n) {
					break
				}
				coord[n] = 0
				n--
			}
			if n < 0 {
				break
			}
		}
		return
	}
	// Rejection sampling without replacement.
	attempts := 0
	maxAttempts := 20*theta + 64
	for len(out.keys) < theta && attempts < maxAttempts {
		attempts++
		for n := 0; n < order; n++ {
			if n != m {
				coord[n] = rng.Intn(x.Dim(n))
			}
		}
		k := x.Key(coord)
		if !seen.Add(k) {
			continue
		}
		out.keys = append(out.keys, k)
		out.coords = append(out.coords, coord...)
	}
}
