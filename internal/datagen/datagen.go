// Package datagen synthesizes multi-aspect data streams that stand in for
// the paper's four real-world datasets (Table II). The generators match the
// published mode sizes, time granularity, and average event rate, and add
// the qualitative structure that drives the algorithms' behaviour:
// Zipf-skewed categorical popularity (a few hot sources/destinations carry
// most of the traffic) and a daily sinusoidal arrival intensity.
//
// Substitution note (see DESIGN.md §2): the real datasets are not
// redistributable inside this offline module, and the algorithms observe
// only (coords, value, timestamp) tuples, so matched-statistics synthetic
// streams preserve the comparative shapes of every experiment. Real CSV
// dumps can still be fed through internal/dataset.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"slicenstitch/internal/stream"
)

// Preset describes a synthetic workload.
type Preset struct {
	// Name identifies the workload ("DivvyBikes", ...).
	Name string
	// Dims are the categorical mode sizes N_1..N_{M-1}.
	Dims []int
	// TimeUnit documents the base tick ("second", "minute", "hour").
	TimeUnit string
	// Rate is the expected number of tuples per base tick.
	Rate float64
	// ZipfS (>1) and ZipfV (≥1) shape the per-mode popularity skew.
	ZipfS, ZipfV float64
	// TicksPerDay sets the seasonality period in base ticks (0 disables).
	TicksPerDay int64
	// Seasonality in [0,1) modulates the rate: rate·(1+Seasonality·sin).
	Seasonality float64
	// DefaultPeriod is the paper's period T for this dataset, in ticks
	// (Table III).
	DefaultPeriod int64
	// DefaultTheta is the paper's sampling threshold θ (Table III).
	DefaultTheta int
	// Patterns is the number of latent rank-1 patterns (e.g. commute
	// flows) the stream is drawn from; each pattern has its own per-mode
	// popularity profile and daily phase. The expected tensor is then a
	// rank-≤Patterns structure plus Poisson noise, mirroring the latent
	// structure that makes the real datasets low-rank-decomposable
	// (0 falls back to a single pattern).
	Patterns int
}

// The four presets mirror Table II/III of the paper. Rates are
// (#nonzeros / #ticks) from Table II.
var (
	// DivvyBikes: 673×673 stations, minute ticks, T = 1 day.
	DivvyBikes = Preset{
		Name: "DivvyBikes", Dims: []int{673, 673}, TimeUnit: "minute",
		Rate: 3.82e6 / 525594.0, ZipfS: 1.9, ZipfV: 2,
		TicksPerDay: 1440, Seasonality: 0.8,
		DefaultPeriod: 1440, DefaultTheta: 20, Patterns: 4,
	}
	// ChicagoCrime: 77 communities × 32 crime types, hour ticks, T = 1 month.
	ChicagoCrime = Preset{
		Name: "ChicagoCrime", Dims: []int{77, 32}, TimeUnit: "hour",
		Rate: 5.33e6 / 148464.0, ZipfS: 1.2, ZipfV: 2,
		TicksPerDay: 24, Seasonality: 0.5,
		DefaultPeriod: 720, DefaultTheta: 20, Patterns: 3,
	}
	// NewYorkTaxi: 265×265 zones, second ticks, T = 1 hour.
	NewYorkTaxi = Preset{
		Name: "NewYorkTaxi", Dims: []int{265, 265}, TimeUnit: "second",
		Rate: 84.39e6 / 5.184e6, ZipfS: 1.25, ZipfV: 3,
		TicksPerDay: 86400, Seasonality: 0.7,
		DefaultPeriod: 3600, DefaultTheta: 20, Patterns: 4,
	}
	// RideAustin: 219×219 zones × 24 car colors, minute ticks, T = 1 day.
	RideAustin = Preset{
		Name: "RideAustin", Dims: []int{219, 219, 24}, TimeUnit: "minute",
		Rate: 0.89e6 / 285136.0, ZipfS: 1.9, ZipfV: 2,
		TicksPerDay: 1440, Seasonality: 0.8,
		DefaultPeriod: 1440, DefaultTheta: 50, Patterns: 4,
	}
)

// Presets lists the four paper workloads in Table II order.
func Presets() []Preset {
	return []Preset{DivvyBikes, ChicagoCrime, NewYorkTaxi, RideAustin}
}

// benchDims holds laptop-sized categorical dimensions per preset, chosen so
// a full experiment stream is 4k–15k tuples.
var benchDims = map[string][]int{
	"DivvyBikes":   {100, 100},
	"ChicagoCrime": {11, 5},
	"NewYorkTaxi":  {30, 30},
	"RideAustin":   {70, 70, 10},
}

// Bench returns a laptop-sized variant of the preset: the categorical
// dimensions are shrunk while the per-cell event density (events per cell
// per tick) of the full-scale dataset is preserved. Density is what
// determines the achievable fitness (signal-to-Poisson-noise per cell) and
// the deg(m,i)-vs-θ sampling regime, so experiments on the bench preset
// reproduce the paper's comparative shapes at a small fraction of the
// compute. Presets without a bench entry are returned unchanged.
func (p Preset) Bench() Preset {
	bd, ok := benchDims[p.Name]
	if !ok {
		return p
	}
	cells := 1.0
	for _, d := range p.Dims {
		cells *= float64(d)
	}
	bcells := 1.0
	for _, d := range bd {
		bcells *= float64(d)
	}
	p.Rate = p.Rate / cells * bcells
	p.Dims = append([]int(nil), bd...)
	return p
}

// PresetByName returns the preset with the given name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("datagen: unknown preset %q", name)
}

// Order returns the tensor order M implied by the preset (categorical modes
// plus the time mode).
func (p Preset) Order() int { return len(p.Dims) + 1 }

// Scaled returns a copy of the preset with the event rate multiplied by f.
// Experiments use this to shrink the paper's multi-million-event streams to
// bench-sized runs while preserving density ratios.
func (p Preset) Scaled(f float64) Preset {
	p.Rate *= f
	return p
}

// pattern is one latent rank-1 flow: per-mode popularity profiles (a
// permuted Zipf each) and a daily activity phase.
type pattern struct {
	zipfs []*rand.Zipf
	perm  [][]int
	phase float64
	// weight is the pattern's share of the total rate.
	weight float64
}

// Generator produces tuples tick by tick. It is deterministic for a given
// (preset, seed) pair.
type Generator struct {
	preset   Preset
	rng      *rand.Rand
	patterns []*pattern
}

// NewGenerator returns a deterministic generator for the preset.
func NewGenerator(p Preset, seed int64) *Generator {
	if p.Rate <= 0 {
		panic(fmt.Sprintf("datagen: non-positive rate %g", p.Rate))
	}
	n := p.Patterns
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{preset: p, rng: rng}
	// Geometric pattern weights: the first pattern dominates, like the
	// leading component of real traffic.
	totalW := 0.0
	for i := 0; i < n; i++ {
		pt := &pattern{
			// Mildly staggered daily phases (e.g. morning vs evening
			// commute) — not evenly spread, which would cancel the
			// aggregate seasonality.
			phase:  0.5 * float64(i),
			weight: math.Pow(0.6, float64(i)),
		}
		for _, d := range p.Dims {
			pt.zipfs = append(pt.zipfs, rand.NewZipf(rng, p.ZipfS, p.ZipfV, uint64(d-1)))
			pt.perm = append(pt.perm, rng.Perm(d))
		}
		totalW += pt.weight
		g.patterns = append(g.patterns, pt)
	}
	for _, pt := range g.patterns {
		pt.weight /= totalW
	}
	return g
}

// patternIntensity returns pattern pt's expected tuple count at tick t.
func (g *Generator) patternIntensity(pt *pattern, t int64) float64 {
	p := g.preset
	base := p.Rate * pt.weight
	if p.TicksPerDay <= 0 || p.Seasonality == 0 {
		return base
	}
	phase := 2*math.Pi*float64(t%p.TicksPerDay)/float64(p.TicksPerDay) + pt.phase
	return base * (1 + p.Seasonality*math.Sin(phase))
}

// intensity returns the expected total tuple count for the given tick.
func (g *Generator) intensity(t int64) float64 {
	s := 0.0
	for _, pt := range g.patterns {
		s += g.patternIntensity(pt, t)
	}
	return s
}

// poisson draws a Poisson variate with mean lambda (Knuth's method; the
// generator rates are ≲ 40 so this is fast enough and exact).
func (g *Generator) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Tick returns the tuples occurring at tick t (possibly none), in stable
// order: each latent pattern contributes a Poisson number of tuples drawn
// from its own popularity profiles.
func (g *Generator) Tick(t int64) []stream.Tuple {
	var out []stream.Tuple
	for _, pt := range g.patterns {
		n := g.poisson(g.patternIntensity(pt, t))
		for i := 0; i < n; i++ {
			coord := make([]int, len(g.preset.Dims))
			for m := range coord {
				coord[m] = pt.perm[m][int(pt.zipfs[m].Uint64())]
			}
			out = append(out, stream.Tuple{Coord: coord, Value: 1, Time: t})
		}
	}
	return out
}

// Generate materializes the stream over ticks [from, to).
func (g *Generator) Generate(from, to int64) *stream.Stream {
	s := stream.New(g.preset.Dims)
	for t := from; t < to; t++ {
		s.Tuples = append(s.Tuples, g.Tick(t)...)
	}
	return s
}

// Generate is a convenience wrapper: a deterministic stream over [from, to)
// for the preset and seed.
func Generate(p Preset, seed, from, to int64) *stream.Stream {
	return NewGenerator(p, seed).Generate(from, to)
}
