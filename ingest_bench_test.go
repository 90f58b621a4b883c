// Ingest hot-path benchmarks — the numbers behind BENCH_ingest.json.
//
// BenchmarkIngestHotPath measures the steady-state public Tracker path
// (validation + window maintenance + SNS-Rnd+ factor update per event),
// BenchmarkIngestHotPath4 the same path at an order-4 paper shape;
// BenchmarkEnginePushBatch measures the same events flowing through the
// multi-stream engine's mailbox and shard writer in batches.
// BenchmarkStreamHandlePush vs BenchmarkEnginePushByName isolate the
// client-side enqueue cost of the pinned *Stream handle against the
// name-keyed lookup path. All must report 0 allocs/op under -benchmem;
// CI gates on a >20% allocs/op regression versus the committed
// BENCH_ingest.json baseline (see cmd/snsbench).
package slicenstitch

import (
	"testing"
	"time"
)

// benchCoords is a fixed ring of coordinate slices so the driver loop
// performs no per-event allocation of its own.
func benchCoords(n, d0, d1 int) [][]int {
	coords := make([][]int, n)
	for i := range coords {
		coords[i] = []int{i % d0, (i * 11) % d1}
	}
	return coords
}

// BenchmarkIngestHotPath: one op = one steady-state Push on a started
// tracker (default SNS-Rnd+), time advancing every 4 events.
func BenchmarkIngestHotPath(b *testing.B) {
	benchPush(b, Config{Dims: []int{64, 64}, W: 8, Period: 16, Rank: 8, Theta: 8, Seed: 1, ALSIters: 2},
		benchCoords(512, 64, 64))
}

// BenchmarkIngestHotPath4: BenchmarkIngestHotPath at the order-4 shape
// and paper settings of the RideAustin workload — 219×219×24 categorical
// modes plus time, W=10, R=20, θ=50, SNS-Rnd+ — so it times the fused
// order-4 row kernels and the θ-sampled solve. 256 events land per
// period on a ring whose mode-0 and mode-2 indices repeat every 32 and
// 24 events, so the time-mode, mode-0 and mode-2 rows all have degree
// above θ and take the sampled path.
func BenchmarkIngestHotPath4(b *testing.B) {
	coords := make([][]int, 4096)
	for i := range coords {
		coords[i] = []int{i % 32, (i * 11) % 219, (i * 7) % 24}
	}
	benchPush(b, Config{Dims: []int{219, 219, 24}, W: 10, Period: 64, Rank: 20, Theta: 50, Seed: 1, ALSIters: 2}, coords)
}

// benchPush times one steady-state Push per op on a tracker built from
// cfg, cycling through coords with time advancing every 4 events: it
// fills the first W periods, starts, and settles buffer and heap
// capacities before the timer starts.
func benchPush(b *testing.B, cfg Config, coords [][]int) {
	tr, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tm := int64(0)
	i := 0
	push := func() {
		if i%4 == 0 {
			tm++
		}
		if err := tr.Push(coords[i%len(coords)], 1, tm); err != nil {
			b.Fatal(err)
		}
		i++
	}
	for i < cfg.W*int(cfg.Period)*4 {
		push()
	}
	if err := tr.Start(); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 4096; k++ {
		push()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		push()
	}
}

// benchEngine builds a started single-stream engine plus a rotating pool
// of pre-sized batches, shared by the engine-side ingest benchmarks. The
// returned fill func writes the next batch into the pool slot j and
// returns it; a slot is reused only long after the writer consumed it
// (pool ≫ mailbox capacity). opts selects the engine construction, so the
// durable benchmark reuses the exact same workload.
func benchEngine(b *testing.B, batchSize, nBatches int, opts Options) (*Engine, *Stream, func(j int) []Event) {
	b.Helper()
	e, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	cfg := StreamConfig{
		Config:          Config{Dims: []int{64, 64}, W: 8, Period: 16, Rank: 8, Theta: 8, Seed: 1, ALSIters: 2},
		MailboxCapacity: 32,
		// No fitness publish inside the timed loop. The idle republish
		// (a factor copy) still fires whenever the writer drains its
		// mailbox, which the producer, outrunning the writer, does not
		// let happen before the final Flush.
		PublishEvery: 1 << 30,
	}
	st, err := e.AddStream("bench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	coords := benchCoords(512, 64, 64)
	batches := make([][]Event, nBatches)
	for j := range batches {
		batches[j] = make([]Event, batchSize)
	}
	tm := int64(0)
	i := 0
	fill := func(j int) []Event {
		bt := batches[j%nBatches]
		for k := range bt {
			if i%4 == 0 {
				tm++
			}
			bt[k] = Event{Coord: coords[i%len(coords)], Value: 1, Time: tm}
			i++
		}
		return bt
	}
	j := 0
	for i < 8*16*4 {
		if err := st.PushBatch(bg, fill(j)); err != nil {
			b.Fatal(err)
		}
		j++
	}
	if err := st.Start(bg); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 16; k++ { // settle capacities
		if err := st.PushBatch(bg, fill(j)); err != nil {
			b.Fatal(err)
		}
		j++
	}
	if err := st.Flush(bg); err != nil {
		b.Fatal(err)
	}
	// Continue the rotating pool where the warm-up left off.
	next := j
	return e, st, func(int) []Event { n := next; next++; return fill(n) }
}

// BenchmarkEnginePushBatch: one op = one event ingested through the
// engine's batched path (mailbox → shard writer → Tracker.PushBatch).
// Fitness publishes are effectively disabled and the mailbox never runs
// dry, so the measurement isolates the ingest pipeline from the
// amortized snapshot cost.
func BenchmarkEnginePushBatch(b *testing.B) {
	const batchSize = 256
	e, _, fill := benchEngine(b, batchSize, 128, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	pushed := 0
	for pushed < b.N {
		if err := e.PushBatch(bg, "bench", fill(0)); err != nil {
			b.Fatal(err)
		}
		pushed += batchSize
	}
	if err := e.Flush(bg, "bench"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIngestDurable: the BenchmarkEnginePushBatch workload with the
// write-ahead log on (interval fsync — the default production policy), so
// the WAL's per-event overhead is measured rather than guessed. The
// append path encodes into the shard's reusable scratch and lands in the
// log's writer-owned buffer, so the durable path must stay at 0 allocs/op
// like the in-memory one; the ns/op delta against BenchmarkEnginePushBatch
// is the durability tax. Checkpointing is effectively disabled so the
// measurement isolates the append+commit path.
func BenchmarkIngestDurable(b *testing.B) {
	const batchSize = 256
	e, _, fill := benchEngine(b, batchSize, 128, Options{Durability: &DurabilityOptions{
		Dir:             b.TempDir(),
		Fsync:           FsyncInterval,
		FsyncEvery:      100 * time.Millisecond,
		CheckpointEvery: 1 << 30,
	}})
	b.ReportAllocs()
	b.ResetTimer()
	pushed := 0
	for pushed < b.N {
		if err := e.PushBatch(bg, "bench", fill(0)); err != nil {
			b.Fatal(err)
		}
		pushed += batchSize
	}
	if err := e.Flush(bg, "bench"); err != nil {
		b.Fatal(err)
	}
}

// benchClientSide builds an engine whose stream sheds load (DropOldest,
// single-event batches) so the caller never blocks on the shard writer:
// what the benchmark times is purely the client-side submit path —
// registry lookup (or not), message construction, mailbox put. That is
// the cost the *Stream handle redesign targets, and it would be invisible
// behind the ~100µs/event factor update the writer performs.
func benchClientSide(b *testing.B) (*Engine, *Stream, [][]Event) {
	b.Helper()
	e := NewEngine()
	b.Cleanup(func() { e.Close() })
	cfg := StreamConfig{
		Config:          Config{Dims: []int{64, 64}, W: 8, Period: 16, Rank: 8, Theta: 8, Seed: 1, ALSIters: 2},
		MailboxCapacity: 64,
		Backpressure:    BackpressureDropOldest,
		// The stream is never started, so neither a fitness publish nor
		// the idle republish (started streams only) runs on the writer.
		PublishEvery: 1 << 30,
	}
	st, err := e.AddStream("bench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	coords := benchCoords(512, 64, 64)
	// A large rotating pool of single-event batches, all at time 0 so the
	// writer's work per event is minimal and order-free under eviction.
	pool := make([][]Event, 4096)
	for j := range pool {
		pool[j] = []Event{{Coord: coords[j%len(coords)], Value: 1, Time: 0}}
	}
	return e, st, pool
}

// BenchmarkStreamHandlePush: one op = one single-event PushBatch through
// a pinned *Stream handle — zero per-call registry lookups. Compare
// against BenchmarkEnginePushByName, which pays the read-locked map
// lookup on every call; the delta is the lookup cost the handle
// amortizes away.
func BenchmarkStreamHandlePush(b *testing.B) {
	_, st, pool := benchClientSide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := st.PushBatch(bg, pool[n%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Flush(bg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEnginePushByName: the same workload as
// BenchmarkStreamHandlePush through the name-keyed convenience path.
func BenchmarkEnginePushByName(b *testing.B) {
	e, _, pool := benchClientSide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := e.PushBatch(bg, "bench", pool[n%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := e.Flush(bg, "bench"); err != nil {
		b.Fatal(err)
	}
}
