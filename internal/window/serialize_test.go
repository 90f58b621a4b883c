package window

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"slicenstitch/internal/stream"
	"slicenstitch/internal/tensor"
)

func TestWindowEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	win := New([]int{4, 3}, 3, 5)
	tm := int64(0)
	for i := 0; i < 60; i++ {
		tm += int64(rng.Intn(2))
		win.AdvanceTo(tm, nil)
		win.Ingest(stream.Tuple{Coord: []int{rng.Intn(4), rng.Intn(3)}, Value: 1, Time: tm})
	}
	var buf bytes.Buffer
	if err := win.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Now() != win.Now() || got.W() != win.W() || got.Period() != win.Period() {
		t.Fatalf("geometry/clock mismatch: %d/%d %d/%d %d/%d",
			got.Now(), win.Now(), got.W(), win.W(), got.Period(), win.Period())
	}
	if !got.X().EqualApprox(win.X(), 0) {
		t.Fatal("window entries mismatch")
	}
	if got.Pending() != win.Pending() {
		t.Fatalf("pending %d != %d", got.Pending(), win.Pending())
	}

	// Continuing both windows with identical input produces identical
	// states at all times — the schedule survived.
	horizon := tm + int64(3)*5 + 1
	var a, b []Change
	win.Drive(nil, horizon, func(c Change) { a = append(a, c) })
	got.Drive(nil, horizon, func(c Change) { b = append(b, c) })
	if len(a) != len(b) {
		t.Fatalf("replayed %d vs %d changes", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Time != b[i].Time || a[i].W != b[i].W {
			t.Fatalf("change %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if !got.X().EqualApprox(win.X(), 0) {
		t.Fatal("windows diverged after continued replay")
	}
}

func TestDecodeWindowRejectsGarbage(t *testing.T) {
	if _, err := DecodeWindow(strings.NewReader("nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestEncodeEmptyWindow(t *testing.T) {
	win := New([]int{2}, 2, 3)
	var buf bytes.Buffer
	if err := win.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.X().NNZ() != 0 || got.Pending() != 0 {
		t.Fatal("empty window did not round-trip empty")
	}
}

// Property: a window restored from its encoding iterates its tensor in the
// live window's exact order — and keeps doing so under identical further
// updates — after random Set/Add/cancel-to-zero sequences that leave
// tombstones in the span and trigger compactions.
func TestRoundTripPreservesSpanOrder(t *testing.T) {
	mutate := func(rng *rand.Rand, x *tensor.Sparse, n int) {
		coord := make([]int, x.Order())
		for op := 0; op < n; op++ {
			for m := range coord {
				coord[m] = rng.Intn(x.Dim(m))
			}
			switch rng.Intn(3) {
			case 0:
				x.Set(coord, rng.NormFloat64())
			case 1:
				x.Add(coord, -x.At(coord)) // cancel to exactly zero
			default:
				x.Add(coord, 1)
			}
		}
	}
	order := func(x *tensor.Sparse) (keys []uint64, vals []uint64) {
		x.ForEachKey(func(k uint64, v float64) {
			keys = append(keys, k)
			vals = append(vals, math.Float64bits(v))
		})
		return keys, vals
	}
	same := func(a, b *tensor.Sparse) bool {
		ak, av := order(a)
		bk, bv := order(b)
		return reflect.DeepEqual(ak, bk) && reflect.DeepEqual(av, bv)
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		win := New([]int{5, 4}, 3, 2)
		mutate(rng, win.x, 150)
		var buf bytes.Buffer
		if err := win.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWindow(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !same(win.x, got.x) {
			t.Fatalf("seed %d: restored window iterates in a different order", seed)
		}
		tail := rng.Int63()
		mutate(rand.New(rand.NewSource(tail)), win.x, 100)
		mutate(rand.New(rand.NewSource(tail)), got.x, 100)
		if !same(win.x, got.x) {
			t.Fatalf("seed %d: restored window diverges in order under identical updates", seed)
		}
	}
}
