// Package tensor implements the sparse tensor substrate of the SliceNStitch
// reproduction: a coordinate-format (COO) tensor whose nonzeros sit in an
// insertion-order span behind one flat open-addressing index, with
// per-(mode,index) fiber registries.
//
// The registries are what give the paper's algorithms their complexity
// guarantees: deg(m,i_m) — the number of nonzeros whose m-th mode index is
// i_m (Theorem 4) — is a slice read, and iterating a matricized row
// X_(m)(i_m,:) costs O(deg). A point lookup, the per-cell cost of
// SNS_RND's θ sampled cells (Theorem 7), is one probe of the index. Each
// nonzero's span slot points back at its entries in its M fibers, so an
// insert or delete costs one index operation plus O(M) slice writes.
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
// The nonzeros live in two parallel insertion-order slices of keys and
// values, the span, with one hash index from key to span slot beside
// them, so AtKey is one probe plus vals[slot]. Each (mode, index) fiber is
// an insertion-order slice of its nonzeros' keys, and each span slot
// keeps M back-pointers to its key's position in its M fibers, so a
// deletion reaches its fiber entries without hashing. The span and the
// fibers follow one discipline: a deletion tombstones its entry, and an
// order-preserving compaction reclaims entries once half are dead. Whole-
// tensor and whole-fiber iteration are therefore sequential scans with no
// hashing, and their order — which every MTTKRP and fitness accumulation
// follows — is a pure function of the surviving key sequence.
type Sparse struct {
	shape   []int
	strides []uint64
	idx     index
	// keys and vals are the nonzeros in insertion order; dead slots hold
	// Tombstone (and value 0). dead counts them. fpos[s·M+m] is the
	// position of keys[s] in its mode-m fiber (meaningless for dead s).
	// Slots and fiber positions are int32: 2³¹ nonzeros would take over
	// 100 GB in this layout.
	keys []uint64
	vals []float64
	fpos []int32
	dead int
	// fibers[m][i] holds the keys of the nonzeros whose mode-m index is i.
	// fibers[m] grows up to the largest mode-m index ever touched.
	fibers [][]fiber
	normSq float64 // maintained Σ x_J², see NormSquared.
	// coordScratch backs the coord slice handed to ForEach* callbacks,
	// keeping per-event slice iteration allocation-free. Like mutation,
	// iteration is single-goroutine by contract.
	coordScratch []int
}

// fiber is the registry of one matricized row X_(m)(i,:): its keys in
// insertion order, dead entries holding Tombstone. Emptied fibers keep
// their capacity, so an index whose degree oscillates around zero — common
// under windowed expiry — does not reallocate on every reappearance.
type fiber struct {
	keys []uint64
	dead int
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
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Sparse{
		shape:        sh,
		strides:      strides,
		idx:          newIndex(),
		fibers:       make([][]fiber, len(shape)),
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
func (t *Sparse) NNZ() int { return t.idx.n }

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
func (t *Sparse) At(coord []int) float64 { return t.AtKey(t.Key(coord)) }

// AtKey returns the entry for an encoded key (0 when not stored).
//
//sns:hotpath
func (t *Sparse) AtKey(k uint64) float64 {
	if s := t.idx.slot(k); s >= 0 {
		return t.vals[s]
	}
	return 0
}

// Set assigns the entry at coord, evicting it when v is (near) zero.
func (t *Sparse) Set(coord []int, v float64) { t.SetKey(t.Key(coord), v) }

// SetKey assigns the entry for an encoded key.
func (t *Sparse) SetKey(k uint64, v float64) {
	pos, existed := t.idx.find(k)
	t.set(k, pos, existed, v)
}

// Add adds v to the entry at coord and returns the new value.
//
//sns:hotpath
func (t *Sparse) Add(coord []int, v float64) float64 {
	k := t.Key(coord)
	pos, existed := t.idx.find(k)
	old := 0.0
	if existed {
		old = t.vals[t.idx.slots[pos]]
	}
	nv := old + v
	t.set(k, pos, existed, nv)
	return nv
}

// set assigns v to key k, which the caller has already probed: pos is its
// index position when existed, else the empty position it would take. So
// Add pays one probe, not two.
//
//sns:hotpath
func (t *Sparse) set(k uint64, pos uint64, existed bool, v float64) {
	if !existed {
		if math.Abs(v) >= zeroEps {
			t.insert(k, pos, v)
		}
		return
	}
	s := t.idx.slots[pos]
	old := t.vals[s]
	if math.Abs(v) < zeroEps {
		t.normSq -= old * old
		t.remove(k, pos, s)
		return
	}
	t.normSq += v*v - old*old
	t.vals[s] = v
}

// insert appends a new nonzero k = v to the span and to its M fibers, and
// indexes it at the empty position pos.
//
//sns:hotpath
func (t *Sparse) insert(k uint64, pos uint64, v float64) {
	t.normSq += v * v
	s := int32(len(t.keys))
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, v)
	for m := range t.shape {
		i := int(k / t.strides[m] % uint64(t.shape[m]))
		for len(t.fibers[m]) <= i {
			t.fibers[m] = append(t.fibers[m], fiber{})
		}
		f := &t.fibers[m][i]
		t.fpos = append(t.fpos, int32(len(f.keys)))
		f.keys = append(f.keys, k)
	}
	t.idx.insertAt(pos, k, s)
}

// remove deletes the nonzero k, found at index position pos with span
// slot s: its fiber entries (reached through the back-pointers), its
// index entry, and its span slot, each by tombstone or backward shift.
//
//sns:hotpath
func (t *Sparse) remove(k uint64, pos uint64, s int32) {
	order := len(t.shape)
	for m := range t.shape {
		f := &t.fibers[m][int(k/t.strides[m]%uint64(t.shape[m]))]
		f.keys[t.fpos[int(s)*order+m]] = Tombstone
		f.dead++
		if 2*f.dead >= len(f.keys) {
			t.compactFiber(m, f)
		}
	}
	t.idx.deleteAt(pos)
	t.keys[s] = Tombstone
	t.vals[s] = 0
	t.dead++
	if 2*t.dead >= len(t.keys) {
		t.compact()
	}
}

// compactFiber squeezes tombstones out of the mode-m fiber f in place,
// preserving order, and re-points each survivor's back-pointer through
// one index probe.
//
//sns:hotpath
func (t *Sparse) compactFiber(m int, f *fiber) {
	order := len(t.shape)
	n := 0
	for _, k := range f.keys {
		if k == Tombstone {
			continue
		}
		f.keys[n] = k
		t.fpos[int(t.idx.slot(k))*order+m] = int32(n)
		n++
	}
	f.keys = f.keys[:n]
	f.dead = 0
}

// compact squeezes tombstones out of the span in place, preserving order,
// and moves each survivor's back-pointers with it and re-points its index
// entry at its new slot.
//
//sns:hotpath
func (t *Sparse) compact() {
	order := len(t.shape)
	n := 0
	for s, k := range t.keys {
		if k == Tombstone {
			continue
		}
		if s != n {
			t.keys[n], t.vals[n] = k, t.vals[s]
			copy(t.fpos[n*order:(n+1)*order], t.fpos[s*order:(s+1)*order])
			pos, _ := t.idx.find(k)
			t.idx.slots[pos] = int32(n)
		}
		n++
	}
	t.keys, t.vals, t.fpos = t.keys[:n], t.vals[:n], t.fpos[:n*order]
	t.dead = 0
}

// Deg returns deg(m, i): the number of nonzeros whose mode-m index is i.
func (t *Sparse) Deg(m, i int) int {
	if i < len(t.fibers[m]) {
		f := &t.fibers[m][i]
		return len(f.keys) - f.dead
	}
	return 0
}

// Tombstone is the sentinel marking dead slots in the raw key spans
// returned by Span and SliceSpan. No live key ever equals it (the keyspace
// computation panics on uint64 overflow, so stored keys are strictly
// below ^uint64(0)). The key index marks its empty positions with it too.
const Tombstone = ^uint64(0)

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
	if i < len(t.fibers[m]) {
		return t.fibers[m][i].keys
	}
	return nil
}

// ForEachInSlice calls fn(coord, value) for every nonzero whose mode-m index
// is i — the nonzeros of the matricized row X_(m)(i,:). The coord slice is
// the tensor's shared scratch, reused across calls and across ForEach*
// invocations; fn must not retain it or start another ForEach* on the same
// tensor.
func (t *Sparse) ForEachInSlice(m, i int, fn func(coord []int, v float64)) {
	coord := t.coordScratch
	for _, k := range t.SliceSpan(m, i) {
		if k == Tombstone {
			continue
		}
		t.Coord(k, coord)
		fn(coord, t.AtKey(k))
	}
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
		if k == Tombstone {
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
		if k == Tombstone {
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
// not the key index: float addition is order-dependent, and a table-order
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
		if k != Tombstone && math.Abs(t.vals[i]-o.AtKey(k)) > tol {
			return false
		}
	}
	for i, k := range o.keys {
		if k == Tombstone {
			continue
		}
		if t.idx.slot(k) < 0 && math.Abs(o.vals[i]) > tol {
			return false
		}
	}
	return true
}

// String summarizes the tensor for debugging.
func (t *Sparse) String() string {
	return fmt.Sprintf("Sparse%v nnz=%d ‖X‖=%.4g", t.shape, t.NNZ(), t.FrobeniusNorm())
}
