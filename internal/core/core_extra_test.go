package core

import (
	"math/rand"
	"testing"

	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/rng"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/tensor"
	"slicenstitch/internal/window"
)

// sampleCellsForTest calls sampleSliceCells with throwaway workspace — the
// tests care about the draw, not the buffer reuse.
func sampleCellsForTest(x *tensor.Sparse, m, i, theta int, r *rng.RNG, exclude []uint64) []uint64 {
	var out cellSample
	var seen tensor.StampedSet
	sampleSliceCells(x, m, i, theta, r, exclude, &out, &seen, make([]int, x.Order()))
	return out.keys
}

// The SNS_VEC time-mode update must be exactly Eq. (9):
// A⁽ᴹ⁾(i,:) += ΔX_(M)(i,:)·K⁽ᴹ⁾·H⁽ᴹ⁾†, computed here independently.
func TestSNSVecTimeModeMatchesEq9(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		win, init, rest := primedSetup(rand.New(rand.NewSource(trial)), []int{4, 3}, 3, 4, 3)
		dec := NewSNSVec(win, init)
		tm := dec.timeMode()

		// Apply one arrival through the window so ΔX is well defined.
		tp := rest[0]
		win.AdvanceTo(tp.Time, nil)
		ch, ok := win.Ingest(tp)
		if !ok {
			continue
		}

		// Expected delta, from scratch.
		model := dec.Model().Clone()
		grams := model.Grams()
		h := cpd.GramsExcept(grams, tm)
		u := make([]float64, model.Rank())
		for _, cell := range ch.Cells {
			if cell.Coord[tm] != win.W()-1 {
				continue
			}
			kr := cpd.KRRow(model.Factors, cell.Coord, tm, nil)
			for k := range u {
				u[k] += cell.Delta * kr[k]
			}
		}
		delta := mat.SolveSym(h, u)
		wantRow := mat.CloneVec(model.Factors[tm].Row(win.W() - 1))
		for k := range wantRow {
			wantRow[k] += delta[k]
		}

		// Actual: run only the time-mode row update.
		dec.updateRow(tm, win.W()-1, ch)
		got := dec.Model().Factors[tm].Row(win.W() - 1)
		if !mat.VecEqualApprox(got, wantRow, 1e-8*(1+mat.Norm2(wantRow))) {
			t.Fatalf("trial %d: Eq.(9) mismatch\ngot  %v\nwant %v", trial, got, wantRow)
		}
	}
}

// prevTracker.begin must register exactly the ΔX cells for exclusion.
func TestPrevTrackerExcludesDeltaCells(t *testing.T) {
	win, init, rest := primedSetup(rand.New(rand.NewSource(7)), []int{4, 3}, 3, 4, 3)
	dec := NewSNSRnd(win, init, 2, 1)
	tp := rest[0]
	win.AdvanceTo(tp.Time, nil)
	ch, ok := win.Ingest(tp)
	if !ok {
		t.Skip("zero tuple")
	}
	dec.beginEvent(ch)
	if len(dec.exclude) != len(ch.Cells) {
		t.Fatalf("exclude size %d != cells %d", len(dec.exclude), len(ch.Cells))
	}
	for _, cell := range ch.Cells {
		if !containsKey(dec.exclude, win.X().Key(cell.Coord)) {
			t.Fatalf("cell %v not excluded", cell.Coord)
		}
	}
	// Next event replaces the exclusion set.
	win.AdvanceTo(win.Now()+1, nil)
	ch2, ok2 := win.Ingest(stream.Tuple{Coord: []int{0, 0}, Value: 1, Time: win.Now() + 1})
	if ok2 {
		dec.beginEvent(ch2)
		if len(dec.exclude) != len(ch2.Cells) {
			t.Fatalf("exclusion set not reset: %d entries", len(dec.exclude))
		}
	}
}

// sampleSliceCells must return distinct in-slice cells, honor exclusions,
// and enumerate exhaustively when the slice is small.
func TestSampleSliceCells(t *testing.T) {
	win, _, _ := primedSetup(rand.New(rand.NewSource(8)), []int{4, 3}, 3, 4, 3)
	x := win.X()
	r := rng.New(9)

	// Slice {J : j0 = 1} has 3×3 = 9 cells. θ=4 < 9: random sampling.
	keys := sampleCellsForTest(x, 0, 1, 4, r, nil)
	if len(keys) != 4 {
		t.Fatalf("sampled %d cells want 4", len(keys))
	}
	seen := map[uint64]struct{}{}
	coord := make([]int, 3)
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			t.Fatal("duplicate cell sampled")
		}
		seen[k] = struct{}{}
		x.Coord(k, coord)
		if coord[0] != 1 {
			t.Fatalf("sampled cell %v outside slice", coord)
		}
	}

	// θ ≥ slice size: exhaustive enumeration.
	all := sampleCellsForTest(x, 0, 1, 100, r, nil)
	if len(all) != 9 {
		t.Fatalf("enumerated %d cells want 9", len(all))
	}

	// Exclusion honored in both regimes.
	exCoord := []int{1, 0, 0}
	exclude := []uint64{x.Key(exCoord)}
	all = sampleCellsForTest(x, 0, 1, 100, r, exclude)
	if len(all) != 8 {
		t.Fatalf("enumeration with exclusion: %d cells want 8", len(all))
	}
	for trial := 0; trial < 30; trial++ {
		for _, k := range sampleCellsForTest(x, 0, 1, 4, r, exclude) {
			if k == x.Key(exCoord) {
				t.Fatal("excluded cell sampled")
			}
		}
	}
}

// An event applied to an (almost) empty window must not corrupt any
// variant: degenerate Grams go through pinv/c-guards without NaN.
func TestEmptyWindowEventRobustness(t *testing.T) {
	for name, mk := range map[string]func(*window.Window, *cpd.Model) Decomposer{
		"mat":  func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSMat(w, m) },
		"vec":  func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSVec(w, m) },
		"rnd":  func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSRnd(w, m, 3, 1) },
		"vec+": func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSVecPlus(w, m, 100) },
		"rnd+": func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSRndPlus(w, m, 3, 100, 1) },
	} {
		win := window.New([]int{3, 3}, 2, 5)
		init := cpd.NewModel([]int{3, 3, 2}, 2) // all-zero model
		dec := mk(win, init)
		win.Drive([]stream.Tuple{{Coord: []int{1, 1}, Value: 2, Time: 0}}, 20,
			func(ch window.Change) { dec.Apply(ch) })
		if dec.Model().HasNaN() {
			t.Errorf("%s: NaN after events on empty/degenerate state", name)
		}
	}
}

// Negative tuple values (decrements) flow through the whole pipeline.
func TestNegativeValueEvents(t *testing.T) {
	win, init, _ := primedSetup(rand.New(rand.NewSource(10)), []int{3, 3}, 3, 4, 2)
	dec := NewSNSRndPlus(win, init, 3, 1000, 1)
	now := win.Now()
	win.Drive([]stream.Tuple{
		{Coord: []int{1, 1}, Value: 5, Time: now + 1},
		{Coord: []int{1, 1}, Value: -5, Time: now + 2},
	}, now+3, func(ch window.Change) { dec.Apply(ch) })
	if dec.Model().HasNaN() {
		t.Fatal("NaN after cancel pair")
	}
	if got := win.X().At([]int{1, 1, win.W() - 1}); got != 0 {
		t.Fatalf("cell should cancel to 0, got %g", got)
	}
}

// Per event, only the designated rows may change: the two time-mode rows
// of the outline plus row i_m of each categorical mode (Algorithm 3).
func TestOnlyDesignatedRowsChange(t *testing.T) {
	for name, mk := range map[string]func(*window.Window, *cpd.Model) Decomposer{
		"vec":  func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSVec(w, m) },
		"rnd":  func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSRnd(w, m, 3, 2) },
		"vec+": func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSVecPlus(w, m, 1000) },
		"rnd+": func(w *window.Window, m *cpd.Model) Decomposer { return NewSNSRndPlus(w, m, 3, 1000, 2) },
	} {
		win, init, rest := primedSetup(rand.New(rand.NewSource(11)), []int{5, 4}, 3, 4, 3)
		dec := mk(win, init)
		events := 0
		win.Drive(rest[:25], win.Now()+35, func(ch window.Change) {
			before := dec.Model().Clone()
			dec.Apply(ch)
			events++
			allowed := map[[2]int]bool{}
			tm := dec.Model().Order() - 1
			if ch.W > 0 {
				allowed[[2]int{tm, win.W() - ch.W}] = true
			}
			if ch.W < win.W() {
				allowed[[2]int{tm, win.W() - ch.W - 1}] = true
			}
			for m := 0; m < tm; m++ {
				allowed[[2]int{m, ch.Tuple.Coord[m]}] = true
			}
			for m, f := range dec.Model().Factors {
				for i := 0; i < f.Rows(); i++ {
					if allowed[[2]int{m, i}] {
						continue
					}
					if !mat.VecEqualApprox(f.Row(i), before.Factors[m].Row(i), 0) {
						t.Fatalf("%s: event %d (w=%d) modified undesignated row mode=%d i=%d",
							name, events, ch.W, m, i)
					}
				}
			}
		})
		if events == 0 {
			t.Fatalf("%s: no events", name)
		}
	}
}
