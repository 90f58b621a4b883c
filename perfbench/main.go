// Command perfbench is the repository benchmark: it measures the
// SliceNStitch engine from outside, through public functions, on three
// fixed workloads, and checks its outputs. See README.md in this directory
// for the metrics, workloads and layer split.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and snsserve from source first:
//
//	bash perfbench/run.sh --workload taxi --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	snsserve string
	workdir  string
}

// runTimeout bounds a whole run; the caller allows 180 seconds.
const runTimeout = 170 * time.Second

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: taxi, austin or crime-http")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the open-loop phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.snsserve, "snsserve", "", "path of a built snsserve binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data directories, logs and spans")
	flag.Parse()
	o.trace = traceFlag != 0
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	// Every workload needs 1000 visibility samples, taken until tailCut
	// seconds before the end.
	if o.seconds < 6 {
		return fmt.Errorf("--seconds %d: need at least 6", o.seconds)
	}
	if o.snsserve == "" {
		return fmt.Errorf("-snsserve is required")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	//lint:ignore ctxfirst run is the command's entry point; the run-wide deadline is rooted here
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	openN := openTuples(w.rate, o.seconds)
	tr := makeTrace(w, o.seed, openN)
	rep := newReport()
	rep.info = map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace,
		"nproc": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"fill_tuples": len(tr.fill), "online_tuples": len(tr.online),
		"closed_tuples": w.closedN, "open_tuples": openN,
		"offered_rate_per_s": w.rate, "open_batch": openBatch, "closed_batch": closedBatch,
		"window_nnz": tr.final.X().NNZ(), "rate_scale": w.scale,
		"dims": tr.dims, "period": tr.period, "W": paperW, "rank": paperRank, "theta": tr.theta,
	}
	if o.trace {
		err = runLayers(ctx, o, w, tr, rep)
	} else {
		err = runEndToEnd(ctx, o, w, tr, rep)
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout, o.trace)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, operation counts and violations.
type report struct {
	metrics    map[string]metric
	attempted  int64
	failed     int64
	violations []string
	info       map[string]any
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
		}
	}
}

// violate records a failed output or validity check: the run is marked
// incorrect and counted as failed, never just reported.
func (r *report) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.violations = append(r.violations, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// print writes the human-readable lines, an info line and, last, the result
// object. Every metric of the catalog for the mode must be present.
func (r *report) print(f *os.File, trace bool) error {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := map[string]metric{}
	for _, d := range names {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %s, catalog says %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
		fmt.Fprintf(f, "%-28s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	failed := r.failed + int64(len(r.violations))
	attempted := r.attempted + int64(len(r.violations))
	fmt.Fprintf(f, "%-28s %14.6g ratio\n", "failed_ratio", float64(failed)/float64(max(attempted, 1)))
	info, err := json.Marshal(map[string]any{"info": r.info, "violations": r.violations})
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(info))
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.violations) == 0, max(attempted, 1), failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(res))
	return err
}
