package slicenstitch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// parallelTestConfig builds a workload over the given categorical
// dimensions that hits shift events often (small Period) so the parallel
// time-mode pair path runs on most events, with a θ small enough that
// the sampled solve paths of the SNS-Rnd variants are exercised too.
func parallelTestConfig(dims []int, alg Algorithm, rank, workers int) Config {
	return Config{
		Dims:        dims,
		W:           4,
		Period:      2,
		Rank:        rank,
		Algorithm:   alg,
		Theta:       3,
		Eta:         100,
		Seed:        42,
		ALSIters:    2,
		Parallelism: workers,
	}
}

// driveParallel feeds a deterministic event stream: a pre-start fill,
// Start, then a mix of pushes (mostly arrivals, with period-crossing
// shifts) and AdvanceTo jumps that produce multi-slice shift events.
func driveParallel(t *testing.T, tr *Tracker, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coord := make([]int, len(tr.cfg.Dims))
	draw := func() []int {
		for m, n := range tr.cfg.Dims {
			coord[m] = rng.Intn(n)
		}
		return coord
	}
	tm := int64(0)
	for i := 0; i < 80; i++ {
		tm += int64(rng.Intn(2))
		if err := tr.Push(draw(), 1+rng.Float64(), tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		tm += int64(rng.Intn(3))
		if err := tr.Push(draw(), 1+rng.Float64(), tm); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			tm += 5 // multi-slice shift via AdvanceTo
			if err := tr.AdvanceTo(tm); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelBitIdentical is the contract behind Config.Parallelism
// (and the header of internal/core/parallel.go): a tracker solving its
// independent time-mode row pairs on pool workers produces bit-identical
// factors, Gram matrices, and checkpoint bytes to a sequential tracker
// fed the same stream. Run under -race it also proves the solve stages
// share no mutable state. The order-4 cases (three categorical modes plus
// time) run the fused order-4 kernels and the pool's pre-drawn sample
// coordinates.
func TestParallelBitIdentical(t *testing.T) {
	for _, shape := range []struct {
		prefix string
		dims   []int
	}{{"", []int{6, 5}}, {"order4/", []int{6, 5, 4}}} {
		for _, alg := range []Algorithm{SNSVec, SNSRnd, SNSVecPlus, SNSRndPlus} {
			for _, rank := range []int{3, 8} {
				t.Run(fmt.Sprintf("%s%s/R%d", shape.prefix, alg, rank), func(t *testing.T) {
					seq, err := New(parallelTestConfig(shape.dims, alg, rank, 0))
					if err != nil {
						t.Fatal(err)
					}
					par, err := New(parallelTestConfig(shape.dims, alg, rank, 2))
					if err != nil {
						t.Fatal(err)
					}
					defer par.Close()

					driveParallel(t, seq, 11)
					driveParallel(t, par, 11)

					stats, ok := par.PoolStats()
					if !ok || stats.Workers != 2 {
						t.Fatalf("PoolStats = %+v, %v; want 2 workers", stats, ok)
					}
					if stats.PairEvents == 0 || stats.RowsSolved != 2*stats.PairEvents {
						t.Fatalf("pool never ran or miscounted: %+v", stats)
					}
					if _, ok := seq.PoolStats(); ok {
						t.Fatal("sequential tracker reports a pool")
					}

					compareTrackersBitwise(t, seq, par)
				})
			}
		}
	}
}

// TestParallelCloseFallsBackSequential checks that a tracker keeps
// working after Close: events apply on the caller goroutine and results
// stay correct (the pool counters stop advancing).
func TestParallelCloseFallsBackSequential(t *testing.T) {
	par, err := New(parallelTestConfig([]int{6, 5}, SNSRndPlus, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	driveParallel(t, par, 3)
	stats, _ := par.PoolStats()
	par.Close()
	par.Close() // idempotent
	tm := par.Now()
	for i := 0; i < 40; i++ {
		tm++
		if err := par.Push([]int{i % 6, i % 5}, 1, tm); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := par.PoolStats()
	if after.PairEvents != stats.PairEvents {
		t.Errorf("pool counters advanced after Close: %+v -> %+v", stats, after)
	}

	seq, err := New(parallelTestConfig([]int{6, 5}, SNSRndPlus, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	driveParallel(t, seq, 3)
	stm := seq.Now()
	for i := 0; i < 40; i++ {
		stm++
		if err := seq.Push([]int{i % 6, i % 5}, 1, stm); err != nil {
			t.Fatal(err)
		}
	}
	compareTrackersBitwise(t, seq, par)
}

// compareTrackersBitwise asserts bit-identical factors, Gram matrices,
// and checkpoint streams between two trackers.
func compareTrackersBitwise(t *testing.T, seq, par *Tracker) {
	t.Helper()
	fs, fp := seq.Factors(), par.Factors()
	for m := range fs.Matrices {
		for i := range fs.Matrices[m] {
			for k, v := range fs.Matrices[m][i] {
				if math.Float64bits(v) != math.Float64bits(fp.Matrices[m][i][k]) {
					t.Fatalf("factor[%d][%d][%d]: seq %x par %x (%g vs %g)",
						m, i, k, math.Float64bits(v), math.Float64bits(fp.Matrices[m][i][k]),
						v, fp.Matrices[m][i][k])
				}
			}
		}
	}
	gs, gp := seq.dec.Model().Grams(), par.dec.Model().Grams()
	for m := range gs {
		ds, dp := gs[m].Data(), gp[m].Data()
		for j := range ds {
			if math.Float64bits(ds[j]) != math.Float64bits(dp[j]) {
				t.Fatalf("gram[%d] entry %d: %g vs %g", m, j, ds[j], dp[j])
			}
		}
	}
	// The serialized Config legitimately differs in the Parallelism knob
	// (execution configuration, not numeric state); neutralize it so the
	// byte comparison covers exactly the window/model/aux state.
	saved := par.cfg.Parallelism
	par.cfg.Parallelism = seq.cfg.Parallelism
	var bs, bp bytes.Buffer
	if err := seq.Checkpoint(&bs); err != nil {
		t.Fatal(err)
	}
	if err := par.Checkpoint(&bp); err != nil {
		t.Fatal(err)
	}
	par.cfg.Parallelism = saved
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatal("checkpoint streams differ")
	}
}
