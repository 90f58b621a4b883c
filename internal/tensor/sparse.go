// Package tensor implements the sparse tensor substrate of the SliceNStitch
// reproduction: a hash-based coordinate-format (COO) tensor with
// per-(mode,index) nonzero registries.
//
// The registries are what give the paper's algorithms their complexity
// guarantees: deg(m,i_m) — the number of nonzeros whose m-th mode index is
// i_m (Theorem 4) — is an O(1) lookup, iterating a matricized row
// X_(m)(i_m,:) costs O(deg), and SNS_RND's uniform sampling of θ nonzeros
// from a row (Algorithm 4, line 12) costs expected O(θ).
package tensor

import (
	"fmt"
	"math"
)

// zeroEps is the magnitude below which an entry is considered zero and
// evicted from the sparse structure. Stream values are event counts or
// quantities; after an add/subtract pair cancels, residues are either
// exactly zero (same-magnitude float ops) or below this threshold.
const zeroEps = 1e-12

// Sparse is a sparse M-mode tensor with nonzero registries per mode index.
// It is not safe for concurrent mutation.
//
// The nonzeros live in one hash map from key to cell (the value inline,
// so AtKey is a single probe, plus the entry's slot) beside two parallel
// insertion-order slices of keys and values. The slices follow the
// keySet discipline: a deletion tombstones its slot, and an
// order-preserving compaction reclaims slots once half are dead. Whole-
// tensor iteration is therefore a sequential scan with no hashing, and
// its order — which every MTTKRP and fitness accumulation follows — is a
// pure function of the surviving key sequence.
type Sparse struct {
	shape   []int
	strides []uint64
	cells   map[uint64]cell
	// keys and vals are the nonzeros in insertion order; dead slots hold
	// Tombstone (and value 0). dead counts them.
	keys []uint64
	vals []float64
	dead int
	// fibers[m][i] holds the keys of nonzeros whose mode-m index is i.
	// Registries are allocated lazily per index.
	fibers []map[int]*keySet
	normSq float64 // maintained Σ x_J², see NormSquared.
	// coordScratch backs the coord slice handed to ForEach* callbacks,
	// keeping per-event slice iteration allocation-free. Like mutation,
	// iteration is single-goroutine by contract.
	coordScratch []int
}

// cell is a stored nonzero: its value and its slot in keys/vals.
type cell struct {
	v    float64
	slot int
}

// NewSparse returns an all-zero sparse tensor with the given shape. The
// product of the dimensions must fit in a uint64 key.
func NewSparse(shape []int) *Sparse {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	strides := make([]uint64, len(shape))
	capacity := uint64(1)
	for m := len(shape) - 1; m >= 0; m-- {
		if shape[m] <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in mode %d", shape[m], m))
		}
		strides[m] = capacity
		next := capacity * uint64(shape[m])
		if next/uint64(shape[m]) != capacity {
			panic(fmt.Sprintf("tensor: shape %v overflows uint64 keyspace", shape))
		}
		capacity = next
	}
	fibers := make([]map[int]*keySet, len(shape))
	for m := range fibers {
		fibers[m] = make(map[int]*keySet)
	}
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Sparse{
		shape:        sh,
		strides:      strides,
		cells:        make(map[uint64]cell),
		fibers:       fibers,
		coordScratch: make([]int, len(sh)),
	}
}

// Order returns the number of modes M.
func (t *Sparse) Order() int { return len(t.shape) }

// Shape returns the dimension lengths (a copy).
func (t *Sparse) Shape() []int {
	out := make([]int, len(t.shape))
	copy(out, t.shape)
	return out
}

// Dim returns the length of mode m.
func (t *Sparse) Dim(m int) int { return t.shape[m] }

// NNZ returns the number of stored nonzeros |X|.
func (t *Sparse) NNZ() int { return len(t.cells) }

// Size returns the total number of cells Π N_m.
func (t *Sparse) Size() uint64 {
	s := uint64(1)
	for _, n := range t.shape {
		s *= uint64(n)
	}
	return s
}

// Key encodes a coordinate into its uint64 key.
func (t *Sparse) Key(coord []int) uint64 {
	if len(coord) != len(t.shape) {
		panic(fmt.Sprintf("tensor: coord order %d != %d", len(coord), len(t.shape)))
	}
	var k uint64
	for m, i := range coord {
		if i < 0 || i >= t.shape[m] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in mode %d", i, t.shape[m], m))
		}
		k += uint64(i) * t.strides[m]
	}
	return k
}

// Coord decodes a key into dst (allocated when nil) and returns it.
//
//sns:hotpath
func (t *Sparse) Coord(k uint64, dst []int) []int {
	if dst == nil {
		//lint:ignore hotpath allocates only for a nil dst; every hot caller passes the tensor's shared coordScratch
		dst = make([]int, len(t.shape))
	}
	for m := range t.shape {
		dst[m] = int(k / t.strides[m] % uint64(t.shape[m]))
	}
	return dst
}

// At returns the entry at coord (0 when not stored).
func (t *Sparse) At(coord []int) float64 { return t.cells[t.Key(coord)].v }

// AtKey returns the entry for an encoded key (0 when not stored).
func (t *Sparse) AtKey(k uint64) float64 { return t.cells[k].v }

// Set assigns the entry at coord, evicting it when v is (near) zero.
func (t *Sparse) Set(coord []int, v float64) { t.SetKey(t.Key(coord), v) }

// SetKey assigns the entry for an encoded key.
func (t *Sparse) SetKey(k uint64, v float64) {
	c, existed := t.cells[k]
	t.set(k, c, existed, v)
}

// set assigns v to key k whose current cell (c, existed) the caller has
// already probed, so Add pays one lookup, not two.
func (t *Sparse) set(k uint64, c cell, existed bool, v float64) {
	if math.Abs(v) < zeroEps {
		if existed {
			t.normSq -= c.v * c.v
			delete(t.cells, k)
			t.keys[c.slot] = tombstone
			t.vals[c.slot] = 0
			t.dead++
			if 2*t.dead >= len(t.keys) {
				t.compact()
			}
			t.unregister(k)
		}
		return
	}
	t.normSq += v*v - c.v*c.v
	if existed {
		c.v = v
		t.vals[c.slot] = v
	} else {
		c = cell{v: v, slot: len(t.keys)}
		t.keys = append(t.keys, k)
		t.vals = append(t.vals, v)
		t.register(k)
	}
	t.cells[k] = c
}

// compact squeezes tombstones out of keys/vals in place, preserving order,
// and re-points the moved cells at their new slots.
func (t *Sparse) compact() {
	n := 0
	for i, k := range t.keys {
		if k == tombstone {
			continue
		}
		if i != n {
			t.keys[n], t.vals[n] = k, t.vals[i]
			c := t.cells[k]
			c.slot = n
			t.cells[k] = c
		}
		n++
	}
	t.keys, t.vals = t.keys[:n], t.vals[:n]
	t.dead = 0
}

// Add adds v to the entry at coord and returns the new value.
//
//sns:hotpath
func (t *Sparse) Add(coord []int, v float64) float64 {
	k := t.Key(coord)
	c, existed := t.cells[k]
	nv := c.v + v
	t.set(k, c, existed, nv)
	return nv
}

//sns:hotpath
func (t *Sparse) register(k uint64) {
	for m := range t.shape {
		i := int(k / t.strides[m] % uint64(t.shape[m]))
		s := t.fibers[m][i]
		if s == nil {
			//lint:ignore hotpath amortized: one registry allocation per distinct (mode,index) ever touched, bounded by the mode sizes
			s = newKeySet()
			t.fibers[m][i] = s
		}
		s.Add(k)
	}
}

//sns:hotpath
func (t *Sparse) unregister(k uint64) {
	for m := range t.shape {
		i := int(k / t.strides[m] % uint64(t.shape[m]))
		if s := t.fibers[m][i]; s != nil {
			s.Remove(k)
			// Emptied registries are kept (not deleted) so an index whose
			// degree oscillates around zero — common under windowed expiry —
			// does not reallocate a keySet on every reappearance. Memory is
			// bounded by the distinct indices ever touched, at most Σ N_m.
		}
	}
}

// Deg returns deg(m, i): the number of nonzeros whose mode-m index is i.
func (t *Sparse) Deg(m, i int) int {
	if s := t.fibers[m][i]; s != nil {
		return s.Len()
	}
	return 0
}

// Tombstone is the sentinel marking dead slots in the raw key spans
// returned by Span and SliceSpan. No live key ever equals it (the keyspace
// computation panics on uint64 overflow, so stored keys are strictly
// below ^uint64(0)).
const Tombstone = tombstone

// Stride returns the mode-m stride of the key encoding: coordinate i in
// mode m contributes i·Stride(m) to the key, so mode-m of a key k decodes
// as k/Stride(m) mod Dim(m).
func (t *Sparse) Stride(m int) uint64 { return t.strides[m] }

// SliceSpan returns the raw backing key span of the (m,i) slice registry:
// the keys of X_(m)(i,:) in the same deterministic order ForEachInSlice
// visits them, interleaved with Tombstone entries that callers must skip.
// The span is a live view — valid only until the tensor's next mutation,
// and must not be modified. It exists so the per-event MTTKRP kernels can
// iterate a matricized row without a closure call per nonzero.
func (t *Sparse) SliceSpan(m, i int) []uint64 {
	if s := t.fibers[m][i]; s != nil {
		return s.keys
	}
	return nil
}

// ForEachInSlice calls fn(coord, value) for every nonzero whose mode-m index
// is i — the nonzeros of the matricized row X_(m)(i,:). The coord slice is
// the tensor's shared scratch, reused across calls and across ForEach*
// invocations; fn must not retain it or start another ForEach* on the same
// tensor.
func (t *Sparse) ForEachInSlice(m, i int, fn func(coord []int, v float64)) {
	s := t.fibers[m][i]
	if s == nil {
		return
	}
	coord := t.coordScratch
	s.ForEach(func(k uint64) {
		t.Coord(k, coord)
		fn(coord, t.cells[k].v)
	})
}

// SampleSlice draws up to n distinct nonzero keys uniformly at random from
// the nonzeros whose mode-m index is i, skipping keys in exclude (which may
// be nil). It returns encoded keys; decode with Coord.
func (t *Sparse) SampleSlice(m, i, n int, rng Rand, exclude map[uint64]struct{}) []uint64 {
	s := t.fibers[m][i]
	if s == nil {
		return nil
	}
	var skip func(uint64) bool
	if len(exclude) > 0 {
		skip = func(k uint64) bool {
			_, ok := exclude[k]
			return ok
		}
	}
	return s.Sample(nil, n, rng, skip)
}

// Span returns the raw backing spans of the whole tensor: every nonzero
// key and its value, in the deterministic order ForEachNonzero visits
// them, interleaved with slots whose key is Tombstone that callers must
// skip. keys and vals have equal length. Like SliceSpan the spans are
// live views — valid only until the tensor's next mutation, and must not
// be modified. They exist so whole-tensor kernels (fitness, MTTKRP) can
// run as flat loops with no closure call or hash probe per nonzero.
func (t *Sparse) Span() (keys []uint64, vals []float64) { return t.keys, t.vals }

// ForEachNonzero calls fn(coord, value) over all nonzeros in a
// deterministic order (fixed for a given operation history). The coord
// slice is the tensor's shared scratch, reused across calls and across
// ForEach* invocations; fn must not retain it or start another ForEach* on
// the same tensor.
func (t *Sparse) ForEachNonzero(fn func(coord []int, v float64)) {
	coord := t.coordScratch
	for i, k := range t.keys {
		if k == tombstone {
			continue
		}
		t.Coord(k, coord)
		fn(coord, t.vals[i])
	}
}

// ForEachKey calls fn(key, value) over all nonzeros in the same
// deterministic order as ForEachNonzero.
func (t *Sparse) ForEachKey(fn func(k uint64, v float64)) {
	for i, k := range t.keys {
		if k == tombstone {
			continue
		}
		fn(k, t.vals[i])
	}
}

// NormSquared returns ‖X‖_F² (maintained incrementally; see Recompute for
// the exact-resum variant used in tests).
func (t *Sparse) NormSquared() float64 {
	if t.normSq < 0 { // guard against negative drift from cancellation
		return 0
	}
	return t.normSq
}

// FrobeniusNorm returns ‖X‖_F.
func (t *Sparse) FrobeniusNorm() float64 { return math.Sqrt(t.NormSquared()) }

// RecomputeNormSquared resums ‖X‖_F² from the stored entries and refreshes
// the maintained accumulator. Useful after very long update sequences to
// shed floating-point drift. The resum walks the order-preserving span,
// not the cell map: float addition is order-dependent, and a map-order
// resum would make the accumulator — which checkpoints capture —
// differ bit-for-bit between a process and its crash-recovered successor.
func (t *Sparse) RecomputeNormSquared() float64 {
	s := 0.0
	t.ForEachKey(func(_ uint64, v float64) {
		s += v * v
	})
	t.normSq = s
	return s
}

// Clone returns a deep copy with the same deterministic iteration order.
func (t *Sparse) Clone() *Sparse {
	out := NewSparse(t.shape)
	t.ForEachKey(func(k uint64, v float64) {
		out.SetKey(k, v)
	})
	return out
}

// EqualApprox reports whether t and o have the same shape and entries that
// agree within tol (comparing missing entries as zero).
func (t *Sparse) EqualApprox(o *Sparse, tol float64) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for m := range t.shape {
		if t.shape[m] != o.shape[m] {
			return false
		}
	}
	for i, k := range t.keys {
		if k != tombstone && math.Abs(t.vals[i]-o.AtKey(k)) > tol {
			return false
		}
	}
	for i, k := range o.keys {
		if k == tombstone {
			continue
		}
		if _, ok := t.cells[k]; !ok && math.Abs(o.vals[i]) > tol {
			return false
		}
	}
	return true
}

// String summarizes the tensor for debugging.
func (t *Sparse) String() string {
	return fmt.Sprintf("Sparse%v nnz=%d ‖X‖=%.4g", t.shape, len(t.cells), t.FrobeniusNorm())
}
