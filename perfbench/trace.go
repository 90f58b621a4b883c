package main

import (
	"fmt"
	"math"
	"time"

	sns "slicenstitch"
	"slicenstitch/internal/datagen"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/window"
)

// Paper settings shared by every workload (Section VI of the paper).
const (
	paperW    = 10
	paperRank = 20
	// fillBatch is the PushBatch/POST size used to fill the initial
	// window before Start; closedBatch the size of the closed-loop
	// batches, openBatch the size of one open-loop send.
	fillBatch   = 2048
	closedBatch = 64
	openBatch   = 8
	// publishEvery is the engine's default snapshot interval, spelled out
	// because visibility latency is proportional to it.
	publishEvery = 256
)

// workload is one fixed input set: a datagen preset at the paper's W and R,
// the size of the closed-loop segment, and the constant open-loop rate.
// Why each was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// preset is the (possibly rate-scaled) generator preset.
	preset datagen.Preset
	// scale is the factor applied to the preset's event rate, recorded in
	// the result so the window size is reproducible.
	scale float64
	// closedN is the number of tuples in the closed-loop segment.
	closedN int
	// rate is the open-loop offered rate in tuples per second, fixed well
	// below the measured closed-loop capacity so the backlog stays flat.
	rate float64
	// http runs the system under test as an snsserve child process.
	http bool
}

var workloads = []workload{
	{
		name:    "taxi",
		preset:  datagen.NewYorkTaxi.Scaled(0.1),
		scale:   0.1,
		closedN: 6000,
		rate:    600,
	},
	{
		name:    "austin",
		preset:  datagen.RideAustin,
		scale:   1,
		closedN: 3000,
		rate:    300,
	},
	{
		name:    "crime-http",
		preset:  datagen.ChicagoCrime.Scaled(0.25),
		scale:   0.25,
		closedN: 12000,
		rate:    1000,
		http:    true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// trace is the generated input of one run plus what the benchmark
// precomputes from it by replaying it through internal/window.
type trace struct {
	dims   []int
	period int64
	theta  int
	// fill holds the tuples of the first W periods, pushed before Start.
	fill []sns.Event
	// online holds the closed-loop segment (the first closedN tuples)
	// followed by the open-loop segment.
	online  []sns.Event
	closedN int
	// counts[i] is the decomposer's cumulative change count (Tracker.Events,
	// Snapshot.Events) right after online tuple i has been applied.
	counts []uint64
	// final is the window after every online tuple, the input of the ALS
	// reference fit.
	final *window.Window
	// fillWall times the window-only replay of the fill (window.fill_s).
	fillWall time.Duration
}

// makeTrace generates a workload's input from seed: the same seed gives the
// same tuples. openN tuples follow the closedN closed-loop tuples.
func makeTrace(w workload, seed int64, openN int) *trace {
	p := w.preset
	tr := &trace{dims: p.Dims, period: p.DefaultPeriod, theta: p.DefaultTheta, closedN: w.closedN}
	g := datagen.NewGenerator(p, seed)
	end := int64(paperW) * p.DefaultPeriod
	tr.fill = toEvents(g.Generate(0, end).Tuples)
	need := w.closedN + openN
	for tick := end; len(tr.online) < need; tick++ {
		tr.online = append(tr.online, toEvents(g.Tick(tick))...)
	}
	tr.online = tr.online[:need]
	tr.precompute()
	return tr
}

func toEvents(ts []stream.Tuple) []sns.Event {
	out := make([]sns.Event, len(ts))
	for i, t := range ts {
		out[i] = sns.Event{Coord: t.Coord, Value: t.Value, Time: t.Time}
	}
	return out
}

// precompute replays the trace through internal/window exactly as
// Tracker.Push does (drain due events, then ingest) and records the
// cumulative change count after each online tuple.
func (tr *trace) precompute() {
	win := window.New(tr.dims, paperW, tr.period)
	var n uint64
	count := func(window.Change) { n++ }
	start := time.Now()
	for _, ev := range tr.fill {
		win.AdvanceTo(ev.Time, count)
		if _, ok := win.Ingest(stream.Tuple{Coord: ev.Coord, Value: ev.Value, Time: ev.Time}); ok {
			n++
		}
	}
	tr.fillWall = time.Since(start)
	n = 0
	tr.counts = make([]uint64, len(tr.online))
	for i, ev := range tr.online {
		win.AdvanceTo(ev.Time, count)
		if _, ok := win.Ingest(stream.Tuple{Coord: ev.Coord, Value: ev.Value, Time: ev.Time}); ok {
			n++
		}
		tr.counts[i] = n
	}
	tr.final = win
}

// config is the tracker configuration of the workload at the paper's
// settings (SNS-Rnd+, W=10, R=20, the preset's θ and T).
func (tr *trace) config(seed int64) sns.Config {
	return sns.Config{
		Dims:      tr.dims,
		W:         paperW,
		Period:    tr.period,
		Rank:      paperRank,
		Algorithm: sns.SNSRndPlus,
		Theta:     tr.theta,
		Seed:      seed,
	}
}

// streamConfig wraps config with the serving defaults spelled out.
func (tr *trace) streamConfig(seed int64) sns.StreamConfig {
	return sns.StreamConfig{Config: tr.config(seed), Backpressure: sns.BackpressureBlock, PublishEvery: publishEvery}
}

// closed and open split the online tuples into the two phases' batches.
func (tr *trace) closed() [][]sns.Event { return batches(tr.online[:tr.closedN], closedBatch) }
func (tr *trace) open() [][]sns.Event   { return batches(tr.online[tr.closedN:], openBatch) }

// batches cuts events into consecutive slices of at most n events. The
// slices share the trace's backing array; the engine only reads them.
func batches(evs []sns.Event, n int) [][]sns.Event {
	out := make([][]sns.Event, 0, (len(evs)+n-1)/n)
	for len(evs) > 0 {
		k := min(n, len(evs))
		out = append(out, evs[:k:k])
		evs = evs[k:]
	}
	return out
}

// openTuples is the open-loop segment length for a run of the given
// length: the offered rate times the run, rounded to whole sends.
func openTuples(rate float64, seconds int) int {
	n := int(math.Round(rate * float64(seconds)))
	return n - n%openBatch
}
