package cpd

import (
	"math/rand"
	"testing"

	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// kernelBenchSetup mirrors the steady state of the root package's
// BenchmarkIngestHotPath: a 64×64×8 window with 512 nonzeros, so each
// mode-0 slice has degree 8 — the exact shape the row kernels see per
// event there. Factor entries are uniform in [0.5, 1.5): well away from
// the subnormal range, so these numbers measure the kernels, not the
// FPU's denormal assists (see flushEps in internal/core).
func kernelBenchSetup(r int) (*tensor.Sparse, []*mat.Dense) {
	x := tensor.NewSparse([]int{64, 64, 8})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		x.Set([]int{(i * 7) % 64, (i * 13) % 64, i % 8}, rng.Float64()+0.5)
	}
	factors := make([]*mat.Dense, 3)
	for m, n := range []int{64, 64, 8} {
		factors[m] = mat.New(n, r)
		for i := 0; i < n; i++ {
			row := factors[m].Row(i)
			for k := range row {
				row[k] = rng.Float64() + 0.5
			}
		}
	}
	return x, factors
}

// BenchmarkMTTKRPRowInto: the any-order reference row kernel at R=8 —
// the bar the specialized kernels are measured against.
func BenchmarkMTTKRPRowInto(b *testing.B) {
	x, f := kernelBenchSetup(8)
	dst := make([]float64, 8)
	scratch := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MTTKRPRowInto(x, f, 0, i%64, dst, scratch)
	}
}

// BenchmarkMTTKRPRow3Any: the order-3 kernel for ranks without a fixed
// stamp (scratch-free, fused multiply chain, runtime-length loops).
func BenchmarkMTTKRPRow3Any(b *testing.B) {
	x, f := kernelBenchSetup(8)
	dst := make([]float64, 8)
	scratch := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mttkrpRow3Any(x, f, 0, i%64, dst, scratch)
	}
}

// BenchmarkMTTKRPRow3R8: the fixed-rank stamp behind the ingest hot path
// (compile-time loop bounds, no bounds checks).
func BenchmarkMTTKRPRow3R8(b *testing.B) {
	x, f := kernelBenchSetup(8)
	dst := make([]float64, 8)
	scratch := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mttkrpRow3R8(x, f, 0, i%64, dst, scratch)
	}
}

// BenchmarkMTTKRPRow3R20: the widest fixed-rank stamp (the paper's R=20
// setting).
func BenchmarkMTTKRPRow3R20(b *testing.B) {
	x, f := kernelBenchSetup(20)
	dst := make([]float64, 20)
	scratch := make([]float64, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mttkrpRow3R20(x, f, 0, i%64, dst, scratch)
	}
}

// BenchmarkKRAxpy3R8: one fused Khatri-Rao axpy term — the inner loop of
// every sampled-residual and ΔX accumulation at R=8.
func BenchmarkKRAxpy3R8(b *testing.B) {
	_, f := kernelBenchSetup(8)
	dst := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		krAxpy3R8(dst, 0.5, f[1].Row(i%64), f[2].Row(i%8))
	}
}

// BenchmarkPredict3R8: one rank-8 three-way inner product — the
// per-sampled-cell model prediction.
func BenchmarkPredict3R8(b *testing.B) {
	_, f := kernelBenchSetup(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = predict3R8(f[0].Row(i%64), f[1].Row(i%64), f[2].Row(i%8))
	}
}

// sink defeats dead-code elimination of pure benchmark bodies.
var sink float64

// kernelBenchSetup4 is kernelBenchSetup at the RideAustin workload's
// order-4 shape (219×219×24 categorical modes, W=10 time slices) with
// 2048 nonzeros, so each mode-0 slice has degree 32.
func kernelBenchSetup4(r int) (*tensor.Sparse, []*mat.Dense) {
	dims := []int{219, 219, 24, 10}
	x := tensor.NewSparse(dims)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2048; i++ {
		x.Set([]int{i % 64, (i * 13) % 219, (i * 7) % 24, i % 10}, rng.Float64()+0.5)
	}
	factors := make([]*mat.Dense, len(dims))
	for m, n := range dims {
		factors[m] = mat.New(n, r)
		for i := 0; i < n; i++ {
			row := factors[m].Row(i)
			for k := range row {
				row[k] = rng.Float64() + 0.5
			}
		}
	}
	return x, factors
}

// BenchmarkMTTKRPRow4: the order-4 row kernel at R=20 over a degree-32
// mode-0 slice — the exact (unsampled) non-time row update.
func BenchmarkMTTKRPRow4(b *testing.B) {
	x, f := kernelBenchSetup4(20)
	dst := make([]float64, 20)
	scratch := make([]float64, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mttkrpRow4Any(x, f, 0, i%64, dst, scratch)
	}
}

// BenchmarkKRAxpy4: one fused order-4 Khatri-Rao axpy term at R=20 — the
// inner loop of every sampled-residual and ΔX accumulation at the
// RideAustin shape.
func BenchmarkKRAxpy4(b *testing.B) {
	_, f := kernelBenchSetup4(20)
	dst := make([]float64, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		krAxpy4Any(dst, 0.5, f[1].Row(i%219), f[2].Row(i%24), f[3].Row(i%10))
	}
}

// BenchmarkPredict4: one rank-20 four-way inner product — the
// per-sampled-cell model prediction at the RideAustin shape.
func BenchmarkPredict4(b *testing.B) {
	_, f := kernelBenchSetup4(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = predict4Any(f[0].Row(i%219), f[1].Row(i%219), f[2].Row(i%24), f[3].Row(i%10))
	}
}
