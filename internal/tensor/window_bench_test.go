package tensor_test

import (
	"math/rand"
	"testing"

	"slicenstitch/internal/datagen"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/tensor"
	"slicenstitch/internal/window"
)

// taxiTuples generates ten periods of the NewYorkTaxi×0.1 stream: enough
// to fill a W = 10 window, the shape BenchmarkFitness (internal/cpd)
// decomposes.
func taxiTuples() (datagen.Preset, []stream.Tuple) {
	p := datagen.NewYorkTaxi.Scaled(0.1)
	var tuples []stream.Tuple
	for _, tp := range datagen.Generate(p, 1, 0, 10*p.DefaultPeriod).Tuples {
		tuples = append(tuples, stream.Tuple{Coord: tp.Coord, Value: tp.Value, Time: tp.Time})
	}
	return p, tuples
}

// fillWindow ingests tuples into a fresh W = 10 window and returns it.
func fillWindow(p datagen.Preset, tuples []stream.Tuple) *window.Window {
	win := window.New(p.Dims, 10, p.DefaultPeriod)
	for _, tp := range tuples {
		win.AdvanceTo(tp.Time, nil)
		win.Ingest(tp)
	}
	return win
}

var windowSink *window.Window

// BenchmarkWindowFill: filling the taxi-shaped window from empty — every
// tuple's arrival and its moves between time slices are tensor inserts
// and deletes, so this is the sparse index's write path.
func BenchmarkWindowFill(b *testing.B) {
	p, tuples := taxiTuples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windowSink = fillWindow(p, tuples)
	}
	b.ReportMetric(float64(len(tuples)), "tuples")
}

var atKeySink float64

// BenchmarkAtKey: point lookups into the filled taxi-shaped window, keyed
// as the θ-sampler draws them: a row X_(m)(i,:) that an event touches —
// the mode-m index of a random stored nonzero, so busy rows come up as
// often as events hit them — then θ = 20 cells of that row with the
// other coordinates uniform. Most probes miss; the hit-ratio metric
// reports the share that hit.
func BenchmarkAtKey(b *testing.B) {
	p, tuples := taxiTuples()
	x := fillWindow(p, tuples).X()
	span, _ := x.Span()
	var live []uint64
	for _, k := range span {
		if k != tensor.Tombstone {
			live = append(live, k)
		}
	}
	rng := rand.New(rand.NewSource(3))
	const theta = 20
	keys := make([]uint64, 1<<16)
	coord := make([]int, x.Order())
	for j := range keys {
		if j%theta == 0 {
			x.Coord(live[rng.Intn(len(live))], coord)
		}
		m := j / theta % x.Order()
		for n := range coord {
			if n != m {
				coord[n] = rng.Intn(x.Dim(n))
			}
		}
		keys[j] = x.Key(coord)
	}
	hits := 0
	for _, k := range keys {
		if x.AtKey(k) != 0 {
			hits++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atKeySink += x.AtKey(keys[i&(len(keys)-1)])
	}
	b.ReportMetric(float64(hits)/float64(len(keys)), "hit-ratio")
}
