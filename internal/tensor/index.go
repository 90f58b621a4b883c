package tensor

// This file holds the package's one open-addressing hash scheme: tables
// of power-of-two capacity, probed linearly from a Fibonacci hash of the
// key. index maps the tensor's nonzero keys to their span slots;
// StampedSet is the θ-sampler's duplicate filter.

// fibonacci is 2⁶⁴/φ, the multiplier of Fibonacci hashing: the top bits
// of k·fibonacci spread consecutive keys — coordinates differing in their
// last mode — across the whole table.
const fibonacci = 0x9E3779B97F4A7C15

// minTableSize is the capacity every table starts from (a power of two).
const minTableSize = 16

// home returns k's first probe position in a table of 2^(64−shift) slots.
func home(k uint64, shift uint) uint64 { return (k * fibonacci) >> shift }

// tableShift returns the capacity of the smallest table, at least
// minTableSize, that holds n keys at a load of at most 1/2, and the hash
// shift that addresses it.
func tableShift(n int) (size int, shift uint) {
	size, shift = minTableSize, 64-4
	for size < 2*n {
		size <<= 1
		shift--
	}
	return size, shift
}

// index maps each stored key to its slot in the tensor's keys/vals span.
// keys and slots are parallel arrays; an empty position holds Tombstone
// in keys. The load stays at most 1/2, and deletion shifts the rest of
// the probe run back, so the table never holds deleted markers and a miss
// stops at the first empty position.
type index struct {
	keys  []uint64
	slots []int32
	n     int
	shift uint
}

func newIndex() index {
	size, shift := tableShift(0)
	return index{keys: emptyKeys(size), slots: make([]int32, size), shift: shift}
}

// emptyKeys returns n empty table positions.
func emptyKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = Tombstone
	}
	return keys
}

// find returns the table position holding k and true, or the empty
// position where k would be inserted and false.
//
//sns:hotpath
func (x *index) find(k uint64) (uint64, bool) {
	mask := uint64(len(x.keys) - 1)
	for i := home(k, x.shift); ; i = (i + 1) & mask {
		switch x.keys[i] {
		case k:
			return i, true
		case Tombstone:
			return i, false
		}
	}
}

// slot returns k's span slot, or -1 when k is not stored.
//
//sns:hotpath
func (x *index) slot(k uint64) int32 {
	if i, ok := x.find(k); ok {
		return x.slots[i]
	}
	return -1
}

// insertAt stores k → slot at position i, which find(k) returned as empty
// with no mutation since, and grows the table when the load passes 1/2.
//
//sns:hotpath
func (x *index) insertAt(i uint64, k uint64, slot int32) {
	x.keys[i], x.slots[i] = k, slot
	x.n++
	if 2*x.n > len(x.keys) {
		x.grow()
	}
}

// grow doubles the table and rehashes every key into it.
func (x *index) grow() {
	oldKeys, oldSlots := x.keys, x.slots
	size := 2 * len(oldKeys)
	//lint:ignore hotpath amortized: the table doubles only when the nonzero count passes half its capacity
	x.keys, x.slots = emptyKeys(size), make([]int32, size)
	x.shift--
	mask := uint64(size - 1)
	for j, k := range oldKeys {
		if k == Tombstone {
			continue
		}
		i := home(k, x.shift)
		for x.keys[i] != Tombstone {
			i = (i + 1) & mask
		}
		x.keys[i], x.slots[i] = k, oldSlots[j]
	}
}

// deleteAt removes the key at position i (as found by find). Each later
// key of the probe run moves back into the hole when the hole lies
// between its home and its position, so every key stays reachable from
// its home by an unbroken run and no deleted marker is needed.
//
//sns:hotpath
func (x *index) deleteAt(i uint64) {
	mask := uint64(len(x.keys) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		k := x.keys[j]
		if k == Tombstone {
			break
		}
		// k may fill the hole when the hole is no farther from j than k's
		// home is, measured backwards around the table.
		if (j-home(k, x.shift))&mask >= (j-i)&mask {
			x.keys[i], x.slots[i] = k, x.slots[j]
			i = j
		}
	}
	x.keys[i] = Tombstone
	x.n--
}

// StampedSet is a set of keys for a caller that empties it often, as the
// θ-sampler does before every draw: a position is occupied only when
// stamped with the current generation, so Reset is O(1). Membership is
// exact. The table grows only when Reset asks for more room than it has,
// so a caller that reuses one set allocates nothing in steady state.
type StampedSet struct {
	keys  []uint64
	stamp []uint32
	gen   uint32
	shift uint
}

// Reset empties the set and sizes it for up to n members at a load of at
// most 1/2.
func (s *StampedSet) Reset(n int) {
	if len(s.keys) < max(2*n, minTableSize) {
		size, shift := tableShift(n)
		s.keys = make([]uint64, size)
		s.stamp = make([]uint32, size)
		s.shift = shift
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 {
		// The generation wrapped: stale stamps could read as current.
		clear(s.stamp)
		s.gen = 1
	}
}

// Add inserts k and reports whether it was absent.
//
//sns:hotpath
func (s *StampedSet) Add(k uint64) bool {
	mask := uint64(len(s.keys) - 1)
	for i := home(k, s.shift); ; i = (i + 1) & mask {
		if s.stamp[i] != s.gen {
			s.stamp[i] = s.gen
			s.keys[i] = k
			return true
		}
		if s.keys[i] == k {
			return false
		}
	}
}
