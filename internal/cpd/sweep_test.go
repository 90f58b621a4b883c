package cpd_test

import (
	"math"
	"math/rand"
	"testing"

	"slicenstitch/internal/als"
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/datagen"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/tensor"
	"slicenstitch/internal/window"
)

// sweepTensor fills a tensor of the given shape with mixed-sign values of
// wildly varying magnitude (adversarial for floating-point identity),
// then deletes a share of the entries in random order. With 0 < kill <
// 0.5 the span keeps live tombstones; kill = 0.5 ends exactly on the
// deletion that triggers a compaction.
func sweepTensor(rng *rand.Rand, shape []int, n int, kill float64) *tensor.Sparse {
	x := tensor.NewSparse(shape)
	var keys []uint64
	coord := make([]int, len(shape))
	for len(keys) < n {
		for m, d := range shape {
			coord[m] = rng.Intn(d)
		}
		k := x.Key(coord)
		if x.AtKey(k) != 0 {
			continue
		}
		mag := math.Pow(10, float64(rng.Intn(34))-30)
		x.SetKey(k, (rng.Float64()*2-1)*mag+math.Copysign(1e-9, rng.Float64()-0.5))
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:int(kill*float64(n))] {
		x.SetKey(k, 0)
	}
	return x
}

func sweepModel(rng *rand.Rand, shape []int, rank int) *cpd.Model {
	m := cpd.NewModel(shape, rank)
	for r := range m.Lambda {
		m.Lambda[r] = rng.NormFloat64()
	}
	for _, f := range m.Factors {
		d := f.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
	}
	return m
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSweepsBitIdentical holds the flat whole-tensor sweeps to their
// closure-per-nonzero oracles bit for bit, for orders 3 and 4, fixed and
// runtime ranks, on spans with live tombstones and right after a
// compaction.
func TestSweepsBitIdentical(t *testing.T) {
	shapes := [][]int{{13, 9, 5}, {7, 6, 5, 4}}
	for _, shape := range shapes {
		for _, rank := range []int{7, 8, 20} {
			for _, kill := range []float64{0, 0.3, 0.5} {
				rng := rand.New(rand.NewSource(int64(len(shape)*1000 + rank*10 + int(kill*10))))
				x := sweepTensor(rng, shape, 180, kill)
				keys, _ := x.Span()
				if tomb := len(keys) - x.NNZ(); (kill == 0.3) != (tomb > 0) || x.NNZ() != 180-int(kill*180) {
					t.Fatalf("shape %v kill %.1f: %d nonzeros, %d tombstones in span", shape, kill, x.NNZ(), tomb)
				}
				m := sweepModel(rng, shape, rank)
				got, want := m.InnerProduct(x), cpd.RefInnerProduct(m, x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("shape %v R=%d kill %.1f: InnerProduct %v, oracle %v", shape, rank, kill, got, want)
				}
				for mode, n := range shape {
					g := cpd.MTTKRPInto(mat.New(n, rank), x, m.Factors, mode)
					w := cpd.RefMTTKRPInto(mat.New(n, rank), x, m.Factors, mode, make([]float64, rank))
					if !sameBits(g.Data(), w.Data()) {
						t.Errorf("shape %v R=%d kill %.1f mode %d: MTTKRPInto differs from oracle", shape, rank, kill, mode)
					}
				}
			}
		}
	}
}

// refALS is als.Run (random start, default tolerance) with every
// whole-tensor sweep routed through the closure-per-nonzero oracles.
func refALS(x *tensor.Sparse, rank int, seed int64, iters int) *cpd.Model {
	model := cpd.NewRandomModel(x.Shape(), rank, rand.New(rand.NewSource(seed)))
	grams := model.Grams()
	scratch := make([]float64, rank)
	prevFit := math.Inf(-1)
	for it := 0; it < iters; it++ {
		for m, f := range model.Factors {
			u := cpd.RefMTTKRPInto(mat.New(f.Rows(), rank), x, model.Factors, m, scratch)
			a := mat.Mul(u, mat.PseudoInverseSym(cpd.GramsExcept(grams, m)))
			als.Normalize(a, model.Lambda)
			model.Factors[m] = a
			grams[m] = mat.Gram(a)
		}
		r := x.NormSquared() - 2*cpd.RefInnerProduct(model, x) + model.NormSquared()
		fit := 1 - math.Sqrt(math.Max(r, 0))/math.Sqrt(x.NormSquared())
		if fit-prevFit < 1e-5 {
			break
		}
		prevFit = fit
	}
	return model
}

// TestALSRunBitIdentical: als.Run on the flat sweeps returns the same
// factors and weights, bit for bit, as ALS on the oracles — including the
// iteration at which early stopping fires.
func TestALSRunBitIdentical(t *testing.T) {
	for _, shape := range [][]int{{20, 15, 6}, {9, 8, 7, 5}} {
		for _, rank := range []int{7, 8, 20} {
			rng := rand.New(rand.NewSource(int64(rank)))
			x := sweepTensor(rng, shape, 400, 0.3)
			var keys []uint64
			x.ForEachKey(func(k uint64, _ float64) { keys = append(keys, k) })
			for _, k := range keys[:len(keys)/2] { // well-scaled values so ALS makes progress
				x.SetKey(k, float64(1+rng.Intn(3)))
			}
			got := als.Run(x, als.Options{Rank: rank, Seed: 5})
			want := refALS(x, rank, 5, 20)
			if !sameBits(got.Lambda, want.Lambda) {
				t.Errorf("shape %v R=%d: λ differs from oracle ALS", shape, rank)
			}
			for m := range got.Factors {
				if !sameBits(got.Factors[m].Data(), want.Factors[m].Data()) {
					t.Errorf("shape %v R=%d: factor %d differs from oracle ALS", shape, rank, m)
				}
			}
		}
	}
}

// taxiWindow is a paper-shaped window: the NewYorkTaxi preset at a tenth of
// its rate (265×265 zones, hourly ticks) over W=10 periods — about 53k
// nonzeros, the window the repository benchmark's taxi workload fits.
func taxiWindow() *tensor.Sparse {
	p := datagen.NewYorkTaxi.Scaled(0.1)
	win := window.New(p.Dims, 10, p.DefaultPeriod)
	for _, tp := range datagen.Generate(p, 1, 0, 10*p.DefaultPeriod).Tuples {
		win.AdvanceTo(tp.Time, nil)
		win.Ingest(stream.Tuple{Coord: tp.Coord, Value: tp.Value, Time: tp.Time})
	}
	return win.X()
}

var fitnessSink float64

// BenchmarkFitness: one publish-time fitness evaluation at the paper's
// R=20 on the taxi-shaped window.
func BenchmarkFitness(b *testing.B) {
	x := taxiWindow()
	m := cpd.NewRandomModel(x.Shape(), 20, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitnessSink = cpd.Fitness(x, m)
	}
	b.ReportMetric(float64(x.NNZ()), "nnz")
}
