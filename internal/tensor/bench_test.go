package tensor

import (
	"math/rand"
	"testing"
)

func benchTensor(nnz int) (*Sparse, *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	x := NewSparse([]int{100, 100, 10})
	for i := 0; i < nnz; i++ {
		x.Add([]int{rng.Intn(100), rng.Intn(100), rng.Intn(10)}, 1)
	}
	return x, rng
}

func BenchmarkAdd(b *testing.B) {
	x, rng := benchTensor(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Add([]int{rng.Intn(100), rng.Intn(100), rng.Intn(10)}, 1)
	}
}

func BenchmarkAddRemovePair(b *testing.B) {
	x, rng := benchTensor(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := []int{rng.Intn(100), rng.Intn(100), rng.Intn(10)}
		x.Add(c, 1)
		x.Add(c, -1)
	}
}

func BenchmarkDeg(b *testing.B) {
	x, _ := benchTensor(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Deg(2, i%10)
	}
}

func BenchmarkForEachInSlice(b *testing.B) {
	x, _ := benchTensor(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		x.ForEachInSlice(2, i%10, func(coord []int, v float64) { n++ })
	}
}

func BenchmarkForEachNonzero(b *testing.B) {
	x, _ := benchTensor(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0.0
		x.ForEachNonzero(func(coord []int, v float64) { s += v })
	}
}
