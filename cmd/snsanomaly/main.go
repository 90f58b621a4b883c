// Command snsanomaly runs the paper's anomaly-detection application
// (Section VI-G) end to end: it generates (or reads) a stream, injects
// abnormal changes, tracks it with SNS⁺_RND, and reports the top-scoring
// reconstruction errors together with precision against the injections.
//
// Usage:
//
//	snsanomaly -preset NewYorkTaxi -scale 0.01 -periods 10 -k 20 -value 15
//	snsanomaly -input taxi.csv -preset NewYorkTaxi -k 20
package main

import (
	"flag"
	"fmt"
	"os"

	"slicenstitch/internal/als"
	"slicenstitch/internal/anomaly"
	"slicenstitch/internal/core"
	"slicenstitch/internal/datagen"
	"slicenstitch/internal/dataset"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/window"
)

func main() {
	var (
		preset  = flag.String("preset", "NewYorkTaxi", "dataset preset")
		input   = flag.String("input", "", "optional CSV stream (generated when empty)")
		scale   = flag.Float64("scale", 1, "event-rate scale on top of the bench preset")
		periods = flag.Int("periods", 10, "periods processed after the initial window")
		w       = flag.Int("w", 10, "window length W")
		rank    = flag.Int("rank", 20, "CP rank R")
		k       = flag.Int("k", 20, "number of injections and of top detections")
		value   = flag.Float64("value", 15, "injected change magnitude")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	p, err := datagen.PresetByName(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	period := p.DefaultPeriod
	t0 := int64(*w) * period
	horizon := t0 + int64(*periods)*period

	var tuples []stream.Tuple
	if *input != "" {
		r, err := dataset.Open(*input, dataset.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s, err := dataset.Collect(r, p.Dims)
		r.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tuples = s.Tuples
	} else {
		norm := 7.27 / p.Rate // normalize rates across presets, as snsexp does
		tuples = datagen.Generate(p.Scaled(*scale*norm), *seed, 0, horizon).Tuples
	}

	// Inject after the initial window.
	prefix := 0
	for prefix < len(tuples) && tuples[prefix].Time <= t0 {
		prefix++
	}
	tail, injections := anomaly.Inject(tuples[prefix:], p.Dims, *k, *value, *seed+9)
	all := append(append([]stream.Tuple{}, tuples[:prefix]...), tail...)

	win, rest := core.Bootstrap(p.Dims, *w, period, all, t0)
	init := als.Run(win.X(), als.Options{Rank: *rank, Seed: *seed})
	dec := core.NewSNSRndPlus(win, init, p.DefaultTheta, 1000, *seed+2)
	det := anomaly.NewDetector(dec.Model())

	win.Drive(rest, horizon, func(ch window.Change) {
		if ch.Kind == window.Arrival {
			v := win.X().At(ch.Cells[0].Coord)
			det.Observe(ch.Time, ch.Tuple.Coord, win.W()-1, v)
		}
		dec.Apply(ch)
	})

	top := det.TopK(*k)
	fmt.Printf("top-%d anomaly scores (SNS-Rnd+, %s-like stream):\n", *k, p.Name)
	fmt.Printf("%-12s %-16s %-10s %-10s %s\n", "time", "coord", "value", "predicted", "z-score")
	for _, ev := range top {
		fmt.Printf("%-12d %-16s %-10.3g %-10.3g %.2f\n", ev.Time, fmt.Sprint(ev.Coord), ev.Value, ev.Predicted, ev.Score)
	}
	score := anomaly.Evaluate(top, injections, 0)
	fmt.Printf("\ninjected: %d   detected: %d   precision@%d: %.2f\n",
		len(injections), score.Detected, *k, score.Precision)
}
