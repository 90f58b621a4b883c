package core

import (
	"math/rand"
	"slices"
	"testing"

	"slicenstitch/internal/rng"
	"slicenstitch/internal/tensor"
)

// containsKey reports whether k is among keys.
func containsKey(keys []uint64, k uint64) bool {
	for _, e := range keys {
		if e == k {
			return true
		}
	}
	return false
}

// refSampleSliceCells is the sampler sampleSliceCells replaced — duplicate
// rejection by scanning the accepted keys, keys only — kept as the oracle
// of its draw sequence.
func refSampleSliceCells(x *tensor.Sparse, m, i, theta int, rng *rng.RNG, exclude []uint64) []uint64 {
	order := x.Order()
	coord := make([]int, order)
	total := 1
	for n := 0; n < order; n++ {
		if n == m {
			continue
		}
		total *= x.Dim(n)
		if total > 1<<30 {
			total = 1 << 30
			break
		}
	}
	var out []uint64
	coord[m] = i
	if total <= theta {
		for {
			k := x.Key(coord)
			if !containsKey(exclude, k) {
				out = append(out, k)
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
		return out
	}
	attempts := 0
	maxAttempts := 20*theta + 64
	for len(out) < theta && attempts < maxAttempts {
		attempts++
		for n := 0; n < order; n++ {
			if n != m {
				coord[n] = rng.Intn(x.Dim(n))
			}
		}
		k := x.Key(coord)
		if containsKey(out, k) {
			continue
		}
		if containsKey(exclude, k) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// sliceKeys returns up to n keys of distinct cells inside slice (m,i),
// drawn with r — exclusion lists that the sampler actually hits.
func sliceKeys(x *tensor.Sparse, m, i, n int, r *rand.Rand) []uint64 {
	coord := make([]int, x.Order())
	var keys []uint64
	for len(keys) < n {
		for d := range coord {
			coord[d] = r.Intn(x.Dim(d))
		}
		coord[m] = i
		if k := x.Key(coord); !containsKey(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSampleSliceCellsMatchesOracle: the stamped-set sampler returns the
// oracle's keys in the oracle's order, each coordinate equal to
// Coord(key), and leaves the RNG in the oracle's state — over order-3
// and order-4 shapes, both the enumeration and the rejection regime,
// exclusions inside and outside the slice, the attempt cap, and θ raised
// between calls on the same (growing) workspace.
func TestSampleSliceCellsMatchesOracle(t *testing.T) {
	shapes := [][]int{{7, 5, 6}, {6, 5, 4, 3}, {219, 219, 24, 10}}
	thetas := []int{1, 3, 8, 12, 50, 120, 400, 2000}
	r := rand.New(rand.NewSource(1))
	for _, dims := range shapes {
		x := tensor.NewSparse(dims)
		var out cellSample
		var seen tensor.StampedSet
		coord := make([]int, len(dims))
		want := make([]int, len(dims))
		calls := 0
		for _, theta := range thetas { // ascending: the workspace must grow
			for m := range dims {
				for trial := 0; trial < 6; trial++ {
					i := r.Intn(dims[m])
					var exclude []uint64
					switch trial % 3 {
					case 1: // hits inside the slice
						exclude = sliceKeys(x, m, i, 1+r.Intn(3), r)
					case 2: // one outside the slice, one inside
						exclude = append(sliceKeys(x, m, (i+1)%dims[m], 1, r), sliceKeys(x, m, i, 1, r)...)
					}
					seed := int64(1000 + calls)
					calls++
					got, ref := rng.New(seed), rng.New(seed)
					sampleSliceCells(x, m, i, theta, got, exclude, &out, &seen, coord)
					wantKeys := refSampleSliceCells(x, m, i, theta, ref, exclude)
					if !slices.Equal(out.keys, wantKeys) {
						t.Fatalf("dims=%v m=%d i=%d θ=%d: keys %v want %v", dims, m, i, theta, out.keys, wantKeys)
					}
					if len(out.coords) != len(out.keys)*len(dims) {
						t.Fatalf("dims=%v θ=%d: %d coordinate ints for %d keys", dims, theta, len(out.coords), len(out.keys))
					}
					for j, k := range out.keys {
						if c := out.coord(j, len(dims)); !slices.Equal(c, x.Coord(k, want)) {
							t.Fatalf("dims=%v θ=%d: coord %v want %v", dims, theta, c, want)
						}
					}
					if !slices.Equal(got.State(), ref.State()) {
						t.Fatalf("dims=%v m=%d θ=%d: RNG state diverged from the oracle", dims, m, theta)
					}
				}
			}
		}
	}
}

// TestSampleSliceCellsAttemptCap: with fewer admissible cells than θ the
// rejection loop stops at its attempt cap, exactly where the oracle's
// does (same RNG position), having returned every cell it reached.
func TestSampleSliceCellsAttemptCap(t *testing.T) {
	x := tensor.NewSparse([]int{3, 4, 3}) // slice (0,i) has 12 cells
	exclude := sliceKeys(x, 0, 1, 5, rand.New(rand.NewSource(2)))
	var out cellSample
	var seen tensor.StampedSet
	got, ref := rng.New(5), rng.New(5)
	const theta = 11 // > 12−5 admissible cells, < 12: rejection regime
	sampleSliceCells(x, 0, 1, theta, got, exclude, &out, &seen, make([]int, 3))
	wantKeys := refSampleSliceCells(x, 0, 1, theta, ref, exclude)
	if !slices.Equal(out.keys, wantKeys) || !slices.Equal(got.State(), ref.State()) {
		t.Fatalf("keys %v want %v (or RNG state diverged)", out.keys, wantKeys)
	}
	if len(out.keys) != 7 {
		t.Fatalf("sampled %d cells, want all 7 admissible ones", len(out.keys))
	}
}

// TestSampleSliceCellsSteadyStateAllocFree: once the workspace has seen a
// θ, sampling at that θ (or below) allocates nothing.
func TestSampleSliceCellsSteadyStateAllocFree(t *testing.T) {
	x := tensor.NewSparse([]int{219, 219, 24, 10})
	var out cellSample
	var seen tensor.StampedSet
	coord := make([]int, 4)
	r := rng.New(3)
	exclude := []uint64{x.Key([]int{1, 2, 3, 4}), x.Key([]int{1, 2, 3, 5})}
	sampleSliceCells(x, 3, 4, 50, r, exclude, &out, &seen, coord)
	allocs := testing.AllocsPerRun(100, func() {
		sampleSliceCells(x, 3, 4, 50, r, exclude, &out, &seen, coord)
		sampleSliceCells(x, 0, 7, 20, r, nil, &out, &seen, coord)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampling allocated %.1f times per run", allocs)
	}
}
