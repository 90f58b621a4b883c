// Command snsgen generates synthetic multi-aspect data streams that mimic
// the SliceNStitch paper's four datasets (Table II) and writes them as CSV
// (time,i1,...,value) for use with snsanomaly, the examples, or external
// tooling. It can also summarize an existing CSV stream.
//
// Usage:
//
//	snsgen -preset NewYorkTaxi -from 0 -to 86400 -scale 0.1 -seed 7 > taxi.csv
//	snsgen -summarize taxi.csv -preset NewYorkTaxi
package main

import (
	"flag"
	"fmt"
	"os"

	"slicenstitch/internal/datagen"
	"slicenstitch/internal/dataset"
)

func main() {
	var (
		preset    = flag.String("preset", "NewYorkTaxi", "dataset preset: DivvyBikes|ChicagoCrime|NewYorkTaxi|RideAustin")
		from      = flag.Int64("from", 0, "first tick (inclusive)")
		to        = flag.Int64("to", 36000, "last tick (exclusive)")
		scale     = flag.Float64("scale", 1.0, "event-rate scale vs the paper's dataset")
		seed      = flag.Int64("seed", 1, "random seed")
		summarize = flag.String("summarize", "", "summarize a CSV stream instead of generating")
	)
	flag.Parse()

	p, err := datagen.PresetByName(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *summarize != "" {
		r, err := dataset.Open(*summarize, dataset.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer r.Close()
		s, err := dataset.Collect(r, p.Dims)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := s.Summarize()
		fmt.Printf("tuples:       %d\n", st.Tuples)
		fmt.Printf("span:         [%d, %d] %ss\n", st.First, st.Last, p.TimeUnit)
		fmt.Printf("total value:  %g\n", st.TotalValue)
		fmt.Printf("rate/tick:    %.4f\n", st.RatePerUnit)
		for m, d := range st.DistinctPerMode {
			fmt.Printf("mode %d:       %d distinct of %d\n", m+1, d, p.Dims[m])
		}
		return
	}

	if *to <= *from {
		fmt.Fprintln(os.Stderr, "snsgen: -to must exceed -from")
		os.Exit(2)
	}
	s := datagen.Generate(p.Scaled(*scale), *seed, *from, *to)
	if err := s.WriteCSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "snsgen: wrote %d tuples over [%d,%d) %ss\n", s.Len(), *from, *to, p.TimeUnit)
}
