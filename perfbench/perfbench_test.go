package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	sns "slicenstitch"
)

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 999)
	if _, err := quantile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 … 1, unsorted
	}
	if got, err := quantile(xs, 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (nearest rank)", got, err)
	}
	if got, err := quantile(xs, 0.5); err != nil || got != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", got, err)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestDueInstants(t *testing.T) {
	start := time.Now()
	s := newSchedule(start, 1000, 8)
	if s.interval != 8*time.Millisecond {
		t.Fatalf("interval = %v, want 8ms for 8 tuples at 1000/s", s.interval)
	}
	for _, k := range []int{0, 1, 125, 1250} {
		if got, want := s.due(k), start.Add(time.Duration(k)*8*time.Millisecond); !got.Equal(want) {
			t.Errorf("due(%d) = %v, want %v", k, got, want)
		}
	}
	// A send due in the future is waited for, and the lag is measured from
	// its due instant.
	s = newSchedule(time.Now().Add(5*time.Millisecond), 1000, 8)
	lag := s.wait(0)
	if now := time.Now(); now.Before(s.due(0)) {
		t.Fatalf("wait returned %v before the due instant", s.due(0).Sub(now))
	}
	if lag < 0 {
		t.Errorf("lag %v is negative", lag)
	}
	// A send already overdue is not waited for and its whole delay counts:
	// due instants never move to absorb a stall.
	s = newSchedule(time.Now().Add(-50*time.Millisecond), 1000, 8)
	if lag := s.wait(0); lag < 50*time.Millisecond {
		t.Errorf("overdue lag %v, want ≥ 50ms", lag)
	}
	if lag := s.wait(2); lag < 34*time.Millisecond {
		t.Errorf("lag of a later overdue send %v, want ≥ 34ms", lag)
	}
}

func TestVisibilityExactMatching(t *testing.T) {
	// Two closed-loop tuples, then six open-loop tuples in sends of two.
	counts := []uint64{4, 6, 9, 11, 14, 15, 19, 30}
	start := time.Now()
	s := schedule{start: start, interval: 10 * time.Millisecond}
	v := newVisibility(counts, 2, s, 2, 4) // measure open tuples 0..3

	v.observe(6, start) // the closed loop's final count: nothing new
	if v.next != 0 || v.mismatches != 0 {
		t.Fatalf("after closed-loop count: next %d mismatches %d", v.next, v.mismatches)
	}
	v.observe(10, start.Add(time.Millisecond)) // between 9 and 11
	if v.mismatches != 1 || v.next != 0 {
		t.Fatalf("a count matching no tuple boundary: mismatches %d next %d", v.mismatches, v.next)
	}
	v.observe(11, start.Add(25*time.Millisecond)) // open tuples 0 and 1
	if v.next != 2 {
		t.Fatalf("next = %d, want 2", v.next)
	}
	if want := 25 * time.Millisecond; v.lat[0] != want || v.lat[1] != want {
		t.Errorf("latencies %v, want both %v from send 0's due instant", v.lat, want)
	}
	v.observe(9, start.Add(30*time.Millisecond)) // goes backwards
	if v.mismatches != 2 {
		t.Errorf("a count going backwards was accepted")
	}
	v.observe(19, start.Add(40*time.Millisecond)) // open tuples 2..4, only 2..3 measured
	if !v.done() || len(v.lat) != 4 {
		t.Fatalf("done %v with %d samples, want 4", v.done(), len(v.lat))
	}
	if want := 30 * time.Millisecond; v.lat[2] != want || v.lat[3] != want {
		t.Errorf("send 1 latencies %v, want %v", v.lat[2:], want)
	}
	if !v.boundary(0) || !v.boundary(30) || v.boundary(31) {
		t.Error("boundary disagrees with counts")
	}
}

// smallWorkload is crime-http's input, cut short so tests run quickly.
func smallWorkload(t *testing.T) workload {
	w, err := workloadByName("crime-http")
	if err != nil {
		t.Fatal(err)
	}
	w.closedN = 300
	return w
}

func TestTraceDeterministicPerSeed(t *testing.T) {
	w := smallWorkload(t)
	a, b, c := makeTrace(w, 7, 200), makeTrace(w, 7, 200), makeTrace(w, 8, 200)
	if !reflect.DeepEqual(a.fill, b.fill) || !reflect.DeepEqual(a.online, b.online) || !reflect.DeepEqual(a.counts, b.counts) {
		t.Fatal("the same seed gave different traces")
	}
	if reflect.DeepEqual(a.online, c.online) {
		t.Fatal("different seeds gave the same online tuples")
	}
	if len(a.online) != 500 || len(a.closed()) != 5 || len(a.open()) != 25 {
		t.Fatalf("online %d closed batches %d open sends %d", len(a.online), len(a.closed()), len(a.open()))
	}
	for i := 1; i < len(a.counts); i++ {
		if a.counts[i] <= a.counts[i-1] {
			t.Fatalf("counts not increasing at %d: %d then %d", i, a.counts[i-1], a.counts[i])
		}
	}
}

// The precomputed change counts are what a Tracker reports as Events after
// each tuple, so snapshots can be matched against them exactly.
func TestCountsMatchTracker(t *testing.T) {
	w := smallWorkload(t)
	tr := makeTrace(w, 3, 0)
	tk, err := sns.New(tr.config(3))
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Close()
	if _, err := tk.PushBatch(tr.fill); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range tr.online {
		if err := tk.Push(ev.Coord, ev.Value, ev.Time); err != nil {
			t.Fatal(err)
		}
		if got := tk.Events(); got != tr.counts[i] {
			t.Fatalf("tuple %d: tracker events %d, precomputed %d", i, got, tr.counts[i])
		}
	}
	if got, want := tk.NNZ(), tr.final.X().NNZ(); got != want {
		t.Errorf("nnz %d, window replay %d", got, want)
	}
}

// BENCHMARK.json at the repository root lists the same metrics as the
// catalog the benchmark prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, catalog %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}
