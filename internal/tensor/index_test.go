package tensor

import (
	"math/rand"
	"slices"
	"testing"
)

// checkIndex verifies x against the reference ref: the same keys with the
// same slots, each reachable from its home through an unbroken run of
// occupied positions, at a load of at most 1/2. It returns how many keys
// sit past the table end relative to their home (their run wrapped).
func checkIndex(t *testing.T, x *index, ref map[uint64]int32) (wrapped int) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("index holds %d keys, reference %d", x.n, len(ref))
	}
	if 2*x.n > len(x.keys) || len(x.keys) != len(x.slots) || len(x.keys)&(len(x.keys)-1) != 0 {
		t.Fatalf("table of %d keys/%d slots holds %d: bad capacity or load", len(x.keys), len(x.slots), x.n)
	}
	mask := uint64(len(x.keys) - 1)
	stored := 0
	for p, k := range x.keys {
		if k == Tombstone {
			continue
		}
		stored++
		want, ok := ref[k]
		if !ok || x.slots[p] != want {
			t.Fatalf("position %d holds %d → %d, reference has %d (present %v)", p, k, x.slots[p], want, ok)
		}
		h := home(k, x.shift)
		for i := h; i != uint64(p); i = (i + 1) & mask {
			if x.keys[i] == Tombstone {
				t.Fatalf("key %d at %d unreachable from home %d: empty position %d", k, p, h, i)
			}
		}
		if uint64(p) < h {
			wrapped++
		}
	}
	if stored != x.n {
		t.Fatalf("table stores %d keys, count says %d", stored, x.n)
	}
	for k, s := range ref {
		if got := x.slot(k); got != s {
			t.Fatalf("slot(%d) = %d want %d", k, got, s)
		}
	}
	return wrapped
}

// Property: random put/get/update/delete sequences leave the index equal
// to a map reference. The run starts from the 16-position table and draws
// a third of its keys from those whose home is one of the last two
// positions, so probe runs wrap past the table end, backward shift moves
// keys back across the wrap, and growth rehashes tables that have seen
// deletions.
func TestIndexMatchesMap(t *testing.T) {
	var wrappedRuns, wrapShifts, dirtyGrowths int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newIndex()
		if len(x.keys) != minTableSize {
			t.Fatalf("new index has %d positions want %d", len(x.keys), minTableSize)
		}
		var tail []uint64 // keys homed at the last two positions of a 16-table
		for k := uint64(0); len(tail) < 12; k++ {
			if home(k, 60) >= 14 {
				tail = append(tail, k)
			}
		}
		ref := map[uint64]int32{}
		deletes := 0
		for op := 0; op < 600; op++ {
			k := uint64(rng.Intn(48))
			if rng.Intn(3) == 0 {
				k = tail[rng.Intn(len(tail))]
			}
			switch rng.Intn(4) {
			case 0, 1: // put or update
				s := int32(rng.Intn(1 << 20))
				size := len(x.keys)
				if p, ok := x.find(k); ok {
					x.slots[p] = s
				} else {
					x.insertAt(p, k, s)
				}
				ref[k] = s
				if len(x.keys) != size && deletes > 0 {
					dirtyGrowths++
				}
			case 2: // get
				want, ok := ref[k]
				if !ok {
					want = -1
				}
				if got := x.slot(k); got != want {
					t.Fatalf("seed %d op %d: slot(%d) = %d want %d", seed, op, k, got, want)
				}
			default: // delete
				p, ok := x.find(k)
				if _, inRef := ref[k]; ok != inRef {
					t.Fatalf("seed %d op %d: find(%d) = %v, reference %v", seed, op, k, ok, inRef)
				}
				if !ok {
					continue
				}
				before := slices.Clone(x.keys)
				x.deleteAt(p)
				delete(ref, k)
				deletes++
				// A key that moved from position j to a higher position i
				// was shifted back across the table end.
				for i, bk := range x.keys {
					if bk == Tombstone || before[i] == bk {
						continue
					}
					for j := 0; j < i; j++ {
						if before[j] == bk {
							wrapShifts++
						}
					}
				}
			}
			wrappedRuns += checkIndex(t, &x, ref)
		}
	}
	if wrappedRuns == 0 || wrapShifts == 0 || dirtyGrowths == 0 {
		t.Fatalf("coverage: %d wrapped placements, %d shifts across the wrap, %d growths after deletions; want all > 0",
			wrappedRuns, wrapShifts, dirtyGrowths)
	}
}

// TestStampedSetGenerationWrap: a reset that wraps the 32-bit generation
// clears the stamps, so no key from an earlier generation reads as
// present.
func TestStampedSetGenerationWrap(t *testing.T) {
	var s StampedSet
	s.Reset(4)
	for k := uint64(0); k < 4; k++ {
		s.Add(k)
	}
	// The stamps above are from generation 1; the next reset wraps back
	// to it and must not let them read as current.
	s.gen = ^uint32(0)
	s.Reset(4)
	for k := uint64(0); k < 4; k++ {
		if !s.Add(k) {
			t.Fatalf("key %d survived a wrapped reset", k)
		}
		if s.Add(k) {
			t.Fatalf("key %d added twice", k)
		}
	}
}
