package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call of the benchmark into a layer. Times are offsets
// from the tracer's epoch on the monotonic clock.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: int32(parent), start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.epoch) }

// record adds a span that was timed elsewhere: it started at start and
// lasted d.
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) {
	s := start.Sub(t.epoch)
	t.spans = append(t.spans, span{name: name, parent: int32(parent), start: s, end: s + d})
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total time.Duration
	// self is total minus the time covered by child spans.
	self time.Duration
	durs []time.Duration
}

// aggregate sums spans by name, with self times.
func (t *tracer) aggregate() map[string]*layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		a := out[s.name]
		if a == nil {
			a = &layerTime{}
			out[s.name] = a
		}
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += d - child[i]
		a.durs = append(a.durs, d)
	}
	return out
}

// write stores the spans as tab-separated id, parent, name, start and end
// in nanoseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
