package main

import (
	"sort"
	"time"
)

// schedule fixes the due instant of every open-loop send: send k is due at
// start + k·interval whatever happened to the sends before it, so a stall
// delays the due instants of nothing and every later event is charged the
// wait it caused (no coordinated omission).
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, rate float64, batch int) schedule {
	return schedule{start: start, interval: time.Duration(float64(batch) / rate * float64(time.Second))}
}

// due returns the instant send k is due.
func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.interval) }

// wait sleeps until send k is due and returns how late the generator is
// when it wakes: the run's scheduling lag for that send.
func (s schedule) wait(k int) time.Duration {
	d := s.due(k)
	if w := time.Until(d); w > 0 {
		time.Sleep(w)
	}
	return time.Since(d)
}

// visibility turns a sequence of published change counts into per-tuple
// visibility latencies. Every published count must equal the precomputed
// count after some online tuple (snapshots are built between batches), so a
// count that matches none is a correctness violation, and tuple i is
// visible from the first snapshot whose count reaches counts[i].
type visibility struct {
	counts []uint64 // trace.counts: change count after each online tuple
	first  int      // index in counts of the first open-loop tuple
	sched  schedule
	batch  int // tuples per send
	// measured is how many open-loop tuples get a latency sample; the
	// last ones of the run are left out because only the final flush,
	// not a regular publish, would show them.
	measured int
	next     int // open-loop tuples [0, next) have been seen
	last     uint64
	lat      []time.Duration
	// mismatches counts published counts that match no tuple boundary or
	// go backwards.
	mismatches int
}

func newVisibility(counts []uint64, first int, sched schedule, batch, measured int) *visibility {
	return &visibility{counts: counts, first: first, sched: sched, batch: batch, measured: measured,
		lat: make([]time.Duration, 0, measured)}
}

// observe records that a snapshot with change count events was read at at.
func (v *visibility) observe(events uint64, at time.Time) {
	if events < v.last || !v.boundary(events) {
		v.mismatches++
		return
	}
	v.last = events
	for v.next < v.measured && v.counts[v.first+v.next] <= events {
		v.lat = append(v.lat, at.Sub(v.sched.due(v.next/v.batch)))
		v.next++
	}
}

// boundary reports whether events is exactly the change count after some
// online tuple (or 0, before any).
func (v *visibility) boundary(events uint64) bool {
	if events == 0 {
		return true
	}
	i := sort.Search(len(v.counts), func(i int) bool { return v.counts[i] >= events })
	return i < len(v.counts) && v.counts[i] == events
}

// done reports whether every measured tuple has been seen.
func (v *visibility) done() bool { return v.next >= v.measured }
