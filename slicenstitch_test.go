package slicenstitch

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func validConfig() Config {
	return Config{Dims: []int{5, 4}, W: 3, Period: 10, Rank: 3}
}

func TestNewDefaults(t *testing.T) {
	tr, err := New(Config{Dims: []int{3}, Period: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.cfg.W != 10 || tr.cfg.Rank != 20 || tr.cfg.Algorithm != SNSRndPlus {
		t.Errorf("defaults not applied: %+v", tr.cfg)
	}
	if tr.cfg.Theta != 20 || tr.cfg.Eta != 1000 {
		t.Errorf("theta/eta defaults wrong: %+v", tr.cfg)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{},                          // no dims
		{Dims: []int{0}, Period: 5}, // bad dim
		{Dims: []int{3}},            // no period
		{Dims: []int{3}, Period: -1},
		{Dims: []int{3}, Period: 5, Algorithm: "bogus"},
		{Dims: []int{3}, Period: 5, Theta: -1},
		{Dims: []int{3}, Period: 5, Eta: -2},
		{Dims: []int{3}, Period: 5, W: -1},
		{Dims: []int{3}, Period: 5, Rank: -1},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func fill(t *testing.T, tr *Tracker, n int, seed int64) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(2))
		if err := tr.Push([]int{rng.Intn(5), rng.Intn(4)}, 1, tm); err != nil {
			t.Fatal(err)
		}
	}
	return tm
}

func TestLifecycle(t *testing.T) {
	tr, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Started() {
		t.Error("tracker should start offline")
	}
	if tr.Fitness() != 0 || tr.Factors() != nil {
		t.Error("pre-start accessors should be zero values")
	}
	last := fill(t, tr, 60, 1)
	if tr.NNZ() == 0 {
		t.Fatal("window empty after fill")
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err == nil {
		t.Error("second Start should fail")
	}
	fitAfterALS := tr.Fitness()
	if fitAfterALS <= 0 {
		t.Errorf("post-ALS fitness = %g", fitAfterALS)
	}
	// Online phase.
	rng := rand.New(rand.NewSource(2))
	tm := last
	for i := 0; i < 100; i++ {
		tm += int64(rng.Intn(2))
		if err := tr.Push([]int{rng.Intn(5), rng.Intn(4)}, 1, tm); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Events() == 0 {
		t.Error("no factor updates recorded")
	}
	if tr.Fitness() < -0.5 {
		t.Errorf("fitness collapsed: %g", tr.Fitness())
	}
	if tr.Now() != tm {
		t.Errorf("Now = %d want %d", tr.Now(), tm)
	}
}

func TestPushValidation(t *testing.T) {
	tr, _ := New(validConfig())
	if err := tr.Push([]int{1}, 1, 0); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tr.Push([]int{9, 0}, 1, 0); err == nil {
		t.Error("out-of-range coord accepted")
	}
	if err := tr.Push([]int{1, 1}, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Push([]int{1, 1}, 1, 5); err == nil {
		t.Error("out-of-order timestamp accepted")
	}
}

func TestAdvanceTo(t *testing.T) {
	tr, _ := New(validConfig())
	tr.Push([]int{0, 0}, 2, 0)
	if err := tr.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if tr.NNZ() != 0 {
		t.Error("tuple should have expired after W·T")
	}
	if err := tr.AdvanceTo(50); err == nil {
		t.Error("backwards AdvanceTo accepted")
	}
}

func TestPredictAndObserved(t *testing.T) {
	tr, _ := New(validConfig())
	if _, err := tr.Predict([]int{0, 0}, 0); err == nil {
		t.Error("Predict before Start should fail")
	}
	tr.Push([]int{2, 3}, 4, 0)
	got, err := tr.Observed([]int{2, 3}, tr.cfg.W-1)
	if err != nil || got != 4 {
		t.Fatalf("Observed = %g, %v", got, err)
	}
	fill(t, tr, 50, 3)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Predict([]int{0, 0}, -1); err == nil {
		t.Error("bad timeIdx accepted")
	}
	if _, err := tr.Predict([]int{0}, 0); err == nil {
		t.Error("bad arity accepted")
	}
	if _, err := tr.Predict([]int{0, 0}, 0); err != nil {
		t.Error(err)
	}
	if _, err := tr.Observed([]int{0, 0}, 99); err == nil {
		t.Error("bad Observed timeIdx accepted")
	}
}

func TestFactorsSnapshot(t *testing.T) {
	tr, _ := New(validConfig())
	last := fill(t, tr, 50, 4)
	tr.Start()
	f := tr.Factors()
	if f == nil {
		t.Fatal("nil factors after Start")
	}
	if len(f.Matrices) != 3 { // 2 categorical + time
		t.Fatalf("modes = %d want 3", len(f.Matrices))
	}
	if len(f.Matrices[0]) != 5 || len(f.Matrices[0][0]) != 3 {
		t.Errorf("mode-0 shape %dx%d want 5x3", len(f.Matrices[0]), len(f.Matrices[0][0]))
	}
	if len(f.Lambda) != 3 {
		t.Errorf("lambda length %d want 3", len(f.Lambda))
	}
	// Mutating the snapshot must not touch the live model.
	f.Matrices[0][0][0] = 12345
	g := tr.Factors()
	if g.Matrices[0][0][0] == 12345 {
		t.Error("Factors snapshot aliases live model")
	}
	// Each mode is one backing array cut into rows capped at R, so an
	// append to one row reallocates instead of overwriting the next.
	for m, rows := range g.Matrices {
		for i, row := range rows {
			if len(row) != 3 || cap(row) != 3 {
				t.Fatalf("mode %d row %d: len %d cap %d, want 3 and 3", m, i, len(row), cap(row))
			}
		}
	}
	next := g.Matrices[0][1][0]
	_ = append(g.Matrices[0][0], 99)
	if g.Matrices[0][1][0] != next {
		t.Error("append to a row overwrote the next row")
	}
	// Mutating the tracker must not touch the copy.
	want := deepCopyFactors(g)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		last += int64(rng.Intn(2))
		if err := tr.Push([]int{rng.Intn(5), rng.Intn(4)}, float64(1+rng.Intn(3)), last); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(tr.Factors(), want) {
		t.Fatal("pushing events did not change the model")
	}
	if !reflect.DeepEqual(g, want) {
		t.Error("Factors copy changed when the tracker moved on")
	}
}

// deepCopyFactors copies f row by row, sharing nothing with it.
func deepCopyFactors(f *Factors) *Factors {
	out := &Factors{Lambda: append([]float64(nil), f.Lambda...)}
	for _, rows := range f.Matrices {
		cp := make([][]float64, len(rows))
		for i, row := range rows {
			cp[i] = append([]float64(nil), row...)
		}
		out.Matrices = append(out.Matrices, cp)
	}
	return out
}

func TestAllAlgorithmsRun(t *testing.T) {
	for _, alg := range []Algorithm{SNSMat, SNSVec, SNSRnd, SNSVecPlus, SNSRndPlus} {
		cfg := validConfig()
		cfg.Algorithm = alg
		tr, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		last := fill(t, tr, 40, 5)
		if err := tr.Start(); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		rng := rand.New(rand.NewSource(6))
		tm := last
		for i := 0; i < 30; i++ {
			tm += int64(rng.Intn(2))
			if err := tr.Push([]int{rng.Intn(5), rng.Intn(4)}, 1, tm); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
		}
		if tr.AlgorithmName() != string(alg) {
			t.Errorf("AlgorithmName = %q want %q", tr.AlgorithmName(), alg)
		}
		if tr.Events() == 0 {
			t.Errorf("%s: no updates", alg)
		}
	}
}

func TestParamCount(t *testing.T) {
	tr, _ := New(validConfig())
	want := 3 * (5 + 4 + 3) // R·(N1+N2+W)
	if got := tr.ParamCount(); got != want {
		t.Errorf("ParamCount = %d want %d", got, want)
	}
}

func TestZeroValuePushIgnored(t *testing.T) {
	tr, _ := New(validConfig())
	fill(t, tr, 40, 7)
	tr.Start()
	before := tr.Events()
	if err := tr.Push([]int{0, 0}, 0, tr.Now()); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != before {
		t.Error("zero-value tuple should not trigger an update")
	}
}

func TestLatencyBudgetWiresAutoTheta(t *testing.T) {
	cfg := validConfig()
	cfg.Algorithm = SNSRndPlus
	cfg.LatencyBudget = time.Millisecond
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := fill(t, tr, 50, 9)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if got := tr.AlgorithmName(); got != "SNS-Rnd+ (auto-θ)" {
		t.Fatalf("AlgorithmName = %q", got)
	}
	rng := rand.New(rand.NewSource(10))
	tm := last
	for i := 0; i < 50; i++ {
		tm += int64(rng.Intn(2))
		if err := tr.Push([]int{rng.Intn(5), rng.Intn(4)}, 1, tm); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Events() == 0 {
		t.Fatal("no updates")
	}
}
