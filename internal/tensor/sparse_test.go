package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestKeyCoordRoundTrip(t *testing.T) {
	ts := NewSparse([]int{3, 4, 5})
	coord := []int{2, 1, 4}
	k := ts.Key(coord)
	got := ts.Coord(k, nil)
	for m := range coord {
		if got[m] != coord[m] {
			t.Fatalf("roundtrip %v -> %v", coord, got)
		}
	}
}

func TestQuickKeyCoordRoundTrip(t *testing.T) {
	ts := NewSparse([]int{7, 11, 13, 5})
	f := func(a, b, c, d uint8) bool {
		coord := []int{int(a) % 7, int(b) % 11, int(c) % 13, int(d) % 5}
		got := ts.Coord(ts.Key(coord), nil)
		for m := range coord {
			if got[m] != coord[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAtAddEvict(t *testing.T) {
	ts := NewSparse([]int{2, 3})
	c := []int{1, 2}
	if got := ts.At(c); got != 0 {
		t.Errorf("empty At = %g", got)
	}
	ts.Set(c, 2.5)
	if got := ts.At(c); got != 2.5 {
		t.Errorf("At = %g want 2.5", got)
	}
	if ts.NNZ() != 1 {
		t.Errorf("NNZ = %d want 1", ts.NNZ())
	}
	ts.Add(c, -2.5)
	if ts.NNZ() != 0 {
		t.Errorf("NNZ after cancel = %d want 0", ts.NNZ())
	}
	if ts.Deg(0, 1) != 0 || ts.Deg(1, 2) != 0 {
		t.Error("registries not cleaned after eviction")
	}
}

func TestAddReturnsNewValue(t *testing.T) {
	ts := NewSparse([]int{2, 2})
	if got := ts.Add([]int{0, 0}, 3); got != 3 {
		t.Errorf("Add returned %g want 3", got)
	}
	if got := ts.Add([]int{0, 0}, -1); got != 2 {
		t.Errorf("Add returned %g want 2", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	ts := NewSparse([]int{2, 2})
	for _, c := range [][]int{{2, 0}, {0, -1}, {0}} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for coord %v", c)
				}
			}()
			ts.At(c)
		}()
	}
}

func TestBadShapePanics(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {3, -1}} {
		shape := shape
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for shape %v", shape)
				}
			}()
			NewSparse(shape)
		}()
	}
}

func TestDegAndSliceIteration(t *testing.T) {
	ts := NewSparse([]int{3, 3, 4})
	ts.Set([]int{0, 1, 2}, 1)
	ts.Set([]int{0, 2, 3}, 2)
	ts.Set([]int{1, 1, 2}, 3)
	if got := ts.Deg(0, 0); got != 2 {
		t.Errorf("Deg(0,0) = %d want 2", got)
	}
	if got := ts.Deg(1, 1); got != 2 {
		t.Errorf("Deg(1,1) = %d want 2", got)
	}
	if got := ts.Deg(2, 2); got != 2 {
		t.Errorf("Deg(2,2) = %d want 2", got)
	}
	if got := ts.Deg(2, 0); got != 0 {
		t.Errorf("Deg(2,0) = %d want 0", got)
	}
	sum := 0.0
	count := 0
	ts.ForEachInSlice(1, 1, func(coord []int, v float64) {
		if coord[1] != 1 {
			t.Errorf("slice iteration leaked coord %v", coord)
		}
		sum += v
		count++
	})
	if count != 2 || sum != 4 {
		t.Errorf("slice iteration: count=%d sum=%g want 2, 4", count, sum)
	}
}

func TestNormMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts := NewSparse([]int{5, 5, 5})
	coords := make([][]int, 0, 50)
	for i := 0; i < 50; i++ {
		c := []int{rng.Intn(5), rng.Intn(5), rng.Intn(5)}
		coords = append(coords, c)
		ts.Add(c, rng.NormFloat64())
	}
	// Random cancellations.
	for _, c := range coords[:20] {
		ts.Add(c, -ts.At(c))
	}
	maintained := ts.NormSquared()
	exact := ts.RecomputeNormSquared()
	if math.Abs(maintained-exact) > 1e-9*(1+exact) {
		t.Errorf("norm drift: maintained %g exact %g", maintained, exact)
	}
}

// Property: after any sequence of random set/add operations, the fiber
// registries exactly index the nonzero support.
func TestQuickRegistryConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := NewSparse([]int{4, 3, 5})
		for op := 0; op < 200; op++ {
			c := []int{rng.Intn(4), rng.Intn(3), rng.Intn(5)}
			switch rng.Intn(3) {
			case 0:
				ts.Set(c, rng.NormFloat64())
			case 1:
				ts.Add(c, rng.NormFloat64())
			default:
				ts.Set(c, 0)
			}
		}
		// Check Deg against brute force for every (mode, index).
		for m := 0; m < 3; m++ {
			for i := 0; i < ts.Dim(m); i++ {
				want := 0
				ts.ForEachNonzero(func(coord []int, v float64) {
					if coord[m] == i {
						want++
					}
				})
				if ts.Deg(m, i) != want {
					return false
				}
				seen := 0
				ts.ForEachInSlice(m, i, func(coord []int, v float64) {
					if coord[m] != i || ts.At(coord) != v {
						seen = -1 << 20
					}
					seen++
				})
				if seen != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	ts := NewSparse([]int{2, 2})
	ts.Set([]int{0, 0}, 1)
	cp := ts.Clone()
	cp.Set([]int{0, 0}, 5)
	cp.Set([]int{1, 1}, 7)
	if ts.At([]int{0, 0}) != 1 || ts.NNZ() != 1 {
		t.Error("Clone aliases original")
	}
	if cp.At([]int{0, 0}) != 5 || cp.NNZ() != 2 {
		t.Error("Clone mutation lost")
	}
}

func TestEqualApprox(t *testing.T) {
	a := NewSparse([]int{2, 2})
	b := NewSparse([]int{2, 2})
	a.Set([]int{0, 1}, 1.0)
	b.Set([]int{0, 1}, 1.0000001)
	if !a.EqualApprox(b, 1e-3) {
		t.Error("should be approx equal")
	}
	if a.EqualApprox(b, 1e-12) {
		t.Error("should differ at tight tol")
	}
	b.Set([]int{1, 1}, 5)
	if a.EqualApprox(b, 1e-3) {
		t.Error("extra entry should break equality")
	}
	c := NewSparse([]int{2, 3})
	if a.EqualApprox(c, 1) {
		t.Error("different shapes should not be equal")
	}
}

func TestSizeAndStringSmoke(t *testing.T) {
	ts := NewSparse([]int{3, 4})
	if ts.Size() != 12 {
		t.Errorf("Size = %d want 12", ts.Size())
	}
	if ts.Order() != 2 {
		t.Errorf("Order = %d want 2", ts.Order())
	}
	if s := ts.String(); s == "" {
		t.Error("empty String")
	}
	sh := ts.Shape()
	sh[0] = 99
	if ts.Dim(0) != 3 {
		t.Error("Shape should return a copy")
	}
}

func TestOverflowShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	NewSparse([]int{1 << 31, 1 << 31, 1 << 31})
}

func TestForEachKeyAndRecompute(t *testing.T) {
	ts := NewSparse([]int{3, 3})
	ts.Set([]int{0, 1}, 2)
	ts.Set([]int{2, 2}, -3)
	sum := 0.0
	ts.ForEachKey(func(k uint64, v float64) { sum += v })
	if sum != -1 {
		t.Errorf("ForEachKey sum = %g want -1", sum)
	}
	if got := ts.RecomputeNormSquared(); math.Abs(got-13) > 1e-12 {
		t.Errorf("RecomputeNormSquared = %g want 13", got)
	}
	if got := ts.NormSquared(); math.Abs(got-13) > 1e-12 {
		t.Errorf("NormSquared after recompute = %g", got)
	}
}

func TestDeterministicIterationOrder(t *testing.T) {
	build := func() []uint64 {
		ts := NewSparse([]int{10, 10})
		for i := 0; i < 50; i++ {
			ts.Set([]int{i % 10, (i * 7) % 10}, float64(i+1))
		}
		ts.Set([]int{3, 3}, 0) // removal leaves a tombstone in the span
		var order []uint64
		ts.ForEachKey(func(k uint64, v float64) { order = append(order, k) })
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order not deterministic at %d", i)
		}
	}
}

func TestAtKeySetKey(t *testing.T) {
	ts := NewSparse([]int{4, 4})
	k := ts.Key([]int{1, 2})
	ts.SetKey(k, 5)
	if ts.AtKey(k) != 5 || ts.At([]int{1, 2}) != 5 {
		t.Error("SetKey/AtKey mismatch")
	}
	ts.SetKey(k, 1e-15) // below eviction threshold: removed
	if ts.NNZ() != 0 {
		t.Error("near-zero value should evict")
	}
}

// randomOps applies n random Set/Add/cancel-to-zero operations on a small
// keyspace, so entries are created, overwritten, cancelled and revived and
// the span both carries tombstones and compacts.
func randomOps(rng *rand.Rand, ts *Sparse, n int) {
	coord := make([]int, ts.Order())
	for op := 0; op < n; op++ {
		for m := range coord {
			coord[m] = rng.Intn(ts.Dim(m))
		}
		switch rng.Intn(4) {
		case 0:
			ts.Set(coord, rng.NormFloat64())
		case 1:
			ts.Add(coord, float64(rng.Intn(5)-2))
		case 2:
			ts.Add(coord, -ts.At(coord)) // cancel to exactly zero
		default:
			ts.Set(coord, 0)
		}
	}
}

// liveSpan returns the live (key, value) pairs of ts's span in order.
func liveSpan(ts *Sparse) ([]uint64, []float64) {
	keys, vals := ts.Span()
	if len(keys) != len(vals) {
		panic("span keys/vals length mismatch")
	}
	var k []uint64
	var v []float64
	for i, key := range keys {
		if key != Tombstone {
			k = append(k, key)
			v = append(v, vals[i])
		}
	}
	return k, v
}

// fiberLayoutOK reports whether every fiber of ts, tombstones skipped,
// is the live span keys filtered to its (m, i) in span order with Deg
// counting it, and whether every back-pointer of a live span slot lands
// on its own key.
func fiberLayoutOK(ts *Sparse, keys []uint64) bool {
	order := ts.Order()
	coord := make([]int, order)
	for m := 0; m < order; m++ {
		for i := 0; i < ts.Dim(m); i++ {
			var want, got []uint64
			for _, k := range keys {
				if ts.Coord(k, coord)[m] == i {
					want = append(want, k)
				}
			}
			for _, k := range ts.SliceSpan(m, i) {
				if k != Tombstone {
					got = append(got, k)
				}
			}
			if !slices.Equal(got, want) || ts.Deg(m, i) != len(want) {
				return false
			}
		}
	}
	if len(ts.fpos) != len(ts.keys)*order {
		return false
	}
	for s, k := range ts.keys {
		if k == Tombstone {
			continue
		}
		ts.Coord(k, coord)
		for m, i := range coord {
			f, p := ts.SliceSpan(m, i), ts.fpos[s*order+m]
			if int(p) >= len(f) || f[p] != k {
				return false
			}
		}
	}
	return true
}

// fiberLens appends the backing length of every fiber of ts, mode by
// mode, to lens[:0].
func fiberLens(ts *Sparse, lens []int) []int {
	lens = lens[:0]
	for m := 0; m < ts.Order(); m++ {
		for i := 0; i < ts.Dim(m); i++ {
			lens = append(lens, len(ts.SliceSpan(m, i)))
		}
	}
	return lens
}

// Property: after random Set/Add/cancel sequences (span and fiber
// compactions included), the raw span is the tensor — ForEachKey and
// Clone iterate in span order, and AtKey, NNZ and RecomputeNormSquared
// agree with it bit for bit — and each fiber is the span filtered to its
// (mode, index), reached from the span by exact back-pointers.
func TestQuickSpanLayout(t *testing.T) {
	compacted, fiberCompacted := false, false
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := NewSparse([]int{5, 4, 3})
		for round := 0; round < 8; round++ {
			before, fibersBefore := len(ts.keys), fiberLens(ts, nil)
			randomOps(rng, ts, 40+rng.Intn(80))
			compacted = compacted || len(ts.keys) < before
			for i, n := range fiberLens(ts, nil) {
				fiberCompacted = fiberCompacted || n < fibersBefore[i]
			}
			keys, vals := liveSpan(ts)
			if len(keys) != ts.NNZ() || len(ts.keys)-ts.dead != ts.NNZ() {
				return false
			}
			norm := 0.0
			for i, k := range keys {
				if math.Float64bits(ts.AtKey(k)) != math.Float64bits(vals[i]) || vals[i] == 0 {
					return false
				}
				norm += vals[i] * vals[i]
			}
			if math.Float64bits(ts.RecomputeNormSquared()) != math.Float64bits(norm) {
				return false
			}
			i := 0
			ok := true
			ts.ForEachKey(func(k uint64, v float64) {
				ok = ok && i < len(keys) && keys[i] == k && math.Float64bits(vals[i]) == math.Float64bits(v)
				i++
			})
			if !ok || i != len(keys) {
				return false
			}
			ck, cv := liveSpan(ts.Clone())
			if len(ck) != len(keys) {
				return false
			}
			for i := range ck {
				if ck[i] != keys[i] || math.Float64bits(cv[i]) != math.Float64bits(vals[i]) {
					return false
				}
			}
			if !fiberLayoutOK(ts, keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if !compacted || !fiberCompacted {
		t.Errorf("compactions seen: span %v, fiber %v; want both", compacted, fiberCompacted)
	}
}

// TestSparseSteadyStateAllocFree: once a sliding window of nonzeros has
// cycled through its keys, inserting one and deleting the oldest at
// constant nnz allocates nothing — through span and fiber compactions
// alike — the index keeps its capacity, and the fibers reuse theirs.
func TestSparseSteadyStateAllocFree(t *testing.T) {
	const live, distinct = 1000, 3000
	rng := rand.New(rand.NewSource(4))
	ts := NewSparse([]int{40, 30, 10})
	seen := map[uint64]bool{}
	var coords [][]int
	for len(coords) < distinct {
		c := []int{rng.Intn(40), rng.Intn(30), rng.Intn(10)}
		if k := ts.Key(c); !seen[k] {
			seen[k] = true
			coords = append(coords, c)
		}
	}
	step := 0
	slide := func(n int) {
		for end := step + n; step < end; step++ {
			ts.Add(coords[step%distinct], 1)
			if step >= live {
				ts.Add(coords[(step-live)%distinct], -1) // cancels to exactly 0
			}
		}
	}
	slide(live + 2*distinct) // fill, then cycle every key through twice
	size := len(ts.idx.keys)
	spanCompactions, fiberCompactions := 0, 0
	before, after := fiberLens(ts, nil), fiberLens(ts, nil)
	allocs := testing.AllocsPerRun(5, func() {
		for n := 0; n < distinct; n++ {
			spanBefore := len(ts.keys)
			before = fiberLens(ts, before)
			slide(1)
			if len(ts.keys) < spanBefore {
				spanCompactions++
			}
			after = fiberLens(ts, after)
			for i, l := range after {
				if l < before[i] {
					fiberCompactions++
				}
			}
		}
	})
	if ts.NNZ() != live || len(ts.idx.keys) != size {
		t.Fatalf("nnz %d (want %d), index %d positions (was %d)", ts.NNZ(), live, len(ts.idx.keys), size)
	}
	if spanCompactions == 0 || fiberCompactions == 0 {
		t.Fatalf("compactions: span %d, fiber %d; want both", spanCompactions, fiberCompactions)
	}
	if allocs != 0 {
		t.Fatalf("steady-state insert/delete allocated %.1f times per %d-step run", allocs, distinct)
	}
}
