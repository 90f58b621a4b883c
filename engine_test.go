package slicenstitch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bg is the no-deadline context the package tests thread through blocking
// engine calls.
var bg = context.Background()

func validStreamConfig() StreamConfig {
	return StreamConfig{Config: validConfig()}
}

// fillAndStart pushes enough events to cover the initial window and
// warm-starts the named stream. Returns the last stream time used.
func fillAndStart(t testing.TB, e *Engine, name string, seed int64) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, 0, 64)
	tm := int64(0)
	for i := 0; i < 50; i++ {
		tm += int64(rng.Intn(2))
		events = append(events, Event{Coord: []int{rng.Intn(5), rng.Intn(4)}, Value: 1, Time: tm})
	}
	if err := e.PushBatch(bg, name, events); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(bg, name); err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestEngineLifecycle(t *testing.T) {
	e := NewEngine()
	defer e.Close()

	if _, err := e.AddStream("", validStreamConfig()); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := e.AddStream("taxi", StreamConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	st, err := e.AddStream("taxi", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Name() != "taxi" {
		t.Fatalf("AddStream handle = %+v", st)
	}
	if _, err := e.AddStream("taxi", validStreamConfig()); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := e.AddStream("bikes", validStreamConfig()); err != nil {
		t.Fatal(err)
	}
	if got := e.Streams(); len(got) != 2 || got[0] != "bikes" || got[1] != "taxi" {
		t.Fatalf("Streams = %v", got)
	}

	if _, err := e.Snapshot("nope"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("Snapshot(unknown) err = %v", err)
	}
	if _, err := e.Stream("nope"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("Stream(unknown) err = %v", err)
	}
	if err := e.PushBatch(bg, "nope", []Event{{Coord: []int{0, 0}, Value: 1}}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("PushBatch(unknown) err = %v", err)
	}

	tm := fillAndStart(t, e, "taxi", 1)
	snap, err := e.Snapshot("taxi")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Started || snap.Ingested != 50 || snap.NNZ == 0 || snap.Factors == nil {
		t.Fatalf("post-start snapshot: %+v", snap)
	}
	if snap.Stream != "taxi" || snap.W != 3 || len(snap.Dims) != 2 {
		t.Fatalf("snapshot identity: %+v", snap)
	}

	// The other stream is independent and still offline.
	if snap2, _ := e.Snapshot("bikes"); snap2.Started {
		t.Fatal("bikes started by taxi's Start")
	}

	if _, err := e.Predict("taxi", []int{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict("taxi", []int{1}, 0); err == nil {
		t.Fatal("short coord accepted")
	}
	if _, err := e.Predict("bikes", []int{1, 1}, 0); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Predict before Start err = %v", err)
	}

	if err := e.AdvanceTo(bg, "taxi", tm+20); err != nil {
		t.Fatal(err)
	}
	if snap, _ = e.Snapshot("taxi"); snap.Now != tm+20 {
		t.Fatalf("Now = %d, want %d", snap.Now, tm+20)
	}

	if err := e.RemoveStream("taxi"); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveStream("taxi"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("second remove err = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := e.Snapshot("bikes"); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Snapshot after Close err = %v", err)
	}
	if _, err := e.AddStream("late", validStreamConfig()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("AddStream after Close err = %v", err)
	}
}

// Streams must list names in sorted order regardless of insertion order —
// the documented determinism guarantee behind GET /v1/streams.
func TestEngineStreamsSorted(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	names := []string{"zebra", "alpha", "mid", "beta", "omega"}
	for _, n := range names {
		if _, err := e.AddStream(n, validStreamConfig()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "mid", "omega", "zebra"}
	for i := 0; i < 5; i++ { // repeated calls must agree exactly
		got := e.Streams()
		if len(got) != len(want) {
			t.Fatalf("Streams = %v", got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Streams = %v, want %v", got, want)
			}
		}
	}
}

// stallWriter occupies the shard writer long enough for subsequent puts to
// pile up in the mailbox: one big batch is dequeued immediately and chewed
// through while the test floods the queue behind it.
func stallWriter(t testing.TB, e *Engine, name string, tm int64) {
	t.Helper()
	heavy := make([]Event, 20000)
	for i := range heavy {
		heavy[i] = Event{Coord: []int{i % 5, i % 4}, Value: 1, Time: tm}
	}
	if err := e.PushBatch(bg, name, heavy); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBackpressureError(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.MailboxCapacity = 1
	cfg.Backpressure = BackpressureError
	if _, err := e.AddStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	tm := fillAndStart(t, e, "s", 3)
	stallWriter(t, e, "s", tm)

	var got error
	for i := 0; i < 10000; i++ {
		if err := e.PushBatch(bg, "s", []Event{{Coord: []int{0, 0}, Value: 1, Time: tm}}); err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, ErrBackpressure) {
		t.Fatalf("flooding a capacity-1 mailbox under BackpressureError: err = %v", got)
	}
	// Control messages still get through (blocking put) and drain the queue.
	if err := e.Flush(bg, "s"); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBackpressureDropOldest(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.MailboxCapacity = 1
	cfg.Backpressure = BackpressureDropOldest
	if _, err := e.AddStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	tm := fillAndStart(t, e, "s", 4)
	stallWriter(t, e, "s", tm)

	for i := 0; i < 1000; i++ {
		if err := e.PushBatch(bg, "s", []Event{{Coord: []int{0, 0}, Value: 1, Time: tm}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(bg, "s"); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dropped == 0 {
		t.Fatal("no batches dropped despite capacity-1 mailbox flood")
	}
	if snap.Backpressure != "drop-oldest" {
		t.Fatalf("Backpressure = %q", snap.Backpressure)
	}
}

func TestEngineObserved(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	if _, err := e.AddStream("s", validStreamConfig()); err != nil {
		t.Fatal(err)
	}
	tm := fillAndStart(t, e, "s", 7)
	if err := e.Push(bg, "s", []int{2, 3}, 7, tm); err != nil {
		t.Fatal(err)
	}
	// Observed is a control op: it queues behind the push above, so no
	// explicit Flush is needed for it to see the event.
	v, err := e.Observed(bg, "s", []int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v < 7 {
		t.Fatalf("Observed = %v, want >= 7", v)
	}
	if _, err := e.Observed(bg, "s", []int{99, 0}, 0); err == nil {
		t.Fatal("bad coord accepted")
	}
	if _, err := e.Observed(bg, "nope", []int{0, 0}, 0); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("Observed(unknown) err = %v", err)
	}
}

func TestEngineIngestErrorsSurfaceInSnapshot(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	if _, err := e.AddStream("s", validStreamConfig()); err != nil {
		t.Fatal(err)
	}
	// PushBatch accepts the batch; the out-of-range coordinate is rejected
	// by the writer and surfaces via the snapshot, not the call.
	if err := e.PushBatch(bg, "s", []Event{
		{Coord: []int{0, 0}, Value: 1, Time: 0},
		{Coord: []int{99, 0}, Value: 1, Time: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(bg, "s"); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot("s")
	if snap.IngestErrors != 1 || snap.Ingested != 1 {
		t.Fatalf("errors = %d ingested = %d, want 1 and 1", snap.IngestErrors, snap.Ingested)
	}
	if snap.LastError == "" {
		t.Fatal("LastError empty after rejected event")
	}
	if snap.ErrorsSincePublish != 1 {
		t.Fatalf("ErrorsSincePublish = %d, want 1", snap.ErrorsSincePublish)
	}
	if snap.LastBatchRejected != 1 {
		t.Fatalf("LastBatchRejected = %d, want 1", snap.LastBatchRejected)
	}
	// The error belongs to the interval that saw it: after a healthy
	// interval the next publish clears it instead of reporting the stale
	// error forever.
	if err := e.PushBatch(bg, "s", []Event{{Coord: []int{0, 0}, Value: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(bg, "s"); err != nil {
		t.Fatal(err)
	}
	snap, _ = e.Snapshot("s")
	if snap.LastError != "" || snap.ErrorsSincePublish != 0 {
		t.Fatalf("error state not aged out: lastError=%q errorsSincePublish=%d",
			snap.LastError, snap.ErrorsSincePublish)
	}
	// A clean batch resets the per-batch rejection count.
	if snap.LastBatchRejected != 0 {
		t.Fatalf("LastBatchRejected = %d after clean batch, want 0", snap.LastBatchRejected)
	}
	// The lifetime counter keeps the history.
	if snap.IngestErrors != 1 || snap.Ingested != 2 {
		t.Fatalf("lifetime errors = %d ingested = %d, want 1 and 2", snap.IngestErrors, snap.Ingested)
	}
}

// Rejected events must not advance the publish clock: a batch of pure
// garbage never triggers the O(nnz) fitness recompute, while the same
// number of applied events does.
func TestEngineRejectedEventsDoNotCountTowardPublish(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.PublishEvery = 4
	if _, err := e.AddStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	base, _ := e.Snapshot("s")
	basePub := base.Stats.Publishes
	// Three batches of all-rejected events: 12 events ≥ PublishEvery, yet
	// no publish may fire.
	for i := 0; i < 3; i++ {
		bad := []Event{
			{Coord: []int{99, 0}, Value: 1, Time: 0},
			{Coord: []int{99, 0}, Value: 1, Time: 0},
			{Coord: []int{99, 0}, Value: 1, Time: 0},
			{Coord: []int{99, 0}, Value: 1, Time: 0},
		}
		if err := e.PushBatch(bg, "s", bad); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, e, "s")
	snap := mustSnap(t, e, "s")
	if got := snap.Stats.Publishes; got != basePub {
		t.Fatalf("all-error batches triggered %d publishes", got-basePub)
	}
	// … yet the error state still surfaces (cheap error-state refresh, not
	// a model publish), even though no event was ever applied.
	if snap.LastError == "" || snap.ErrorsSincePublish != 12 {
		t.Fatalf("all-error stream hides its errors: lastError=%q errorsSincePublish=%d",
			snap.LastError, snap.ErrorsSincePublish)
	}
	if snap.LastBatchRejected != 4 {
		t.Fatalf("LastBatchRejected = %d, want 4", snap.LastBatchRejected)
	}
	// A clean batch too small to trigger a publish still clears the
	// per-batch rejection count via the cheap error-state refresh — the
	// stale 4 must not stick around until the next full publish.
	if err := e.PushBatch(bg, "s", []Event{{Coord: []int{0, 0}, Value: 1, Time: 0}}); err != nil {
		t.Fatal(err)
	}
	drain(t, e, "s")
	snap = mustSnap(t, e, "s")
	if snap.Stats.Publishes != basePub {
		t.Fatalf("small clean batch triggered a model publish")
	}
	if snap.LastBatchRejected != 0 {
		t.Fatalf("LastBatchRejected = %d after clean batch, want 0", snap.LastBatchRejected)
	}
	// The same volume of applied events does publish.
	good := make([]Event, 4)
	for i := range good {
		good[i] = Event{Coord: []int{0, 0}, Value: 1, Time: int64(i)}
	}
	if err := e.PushBatch(bg, "s", good); err != nil {
		t.Fatal(err)
	}
	drain(t, e, "s")
	if got := mustSnap(t, e, "s").Stats.Publishes; got <= basePub {
		t.Fatal("applied events did not trigger a publish")
	}
}

// drain waits until the shard's queue is empty and the writer idle,
// without forcing a publish the way Flush does.
func drain(t *testing.T, e *Engine, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap := mustSnap(t, e, name)
		if snap.QueueDepth == 0 {
			// One control round-trip guarantees the in-flight batch (if
			// any) finished before we read counters. Observed is the only
			// control op that does not publish.
			if _, err := e.Observed(bg, name, []int{0, 0}, 0); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queue never drained")
}

func mustSnap(t *testing.T, e *Engine, name string) Snapshot {
	t.Helper()
	snap, err := e.Snapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestEngineCheckpointRestore checks that an engine's streams come back
// from their checkpoints: a durable engine checkpoints each shard on its
// writer goroutine, and reopening the data directory rebuilds every
// stream — tracker state, serving config, both the started and the
// offline phase — live and ready for new work.
func TestEngineCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Durability: &DurabilityOptions{Dir: dir, CheckpointEvery: 8}})
	if err != nil {
		t.Fatal(err)
	}
	cfgA := validStreamConfig()
	cfgA.MailboxCapacity = 17
	cfgA.Backpressure = BackpressureDropOldest
	cfgA.PublishEvery = 33
	if _, err := e.AddStream("a", cfgA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStream("b", validStreamConfig()); err != nil {
		t.Fatal(err)
	}
	fillAndStart(t, e, "a", 5)
	// Stream b stays offline — restore must handle both phases.
	if err := e.PushBatch(bg, "b", []Event{{Coord: []int{1, 1}, Value: 2, Time: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAll(bg); err != nil {
		t.Fatal(err)
	}
	want, _ := e.Snapshot("a")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lsns, err := listCheckpoints(filepath.Join(streamsRoot(dir), encodeStreamDir("a"))); err != nil || len(lsns) == 0 {
		t.Fatalf("stream a has no checkpoint file: %v (%v)", lsns, err)
	}

	got, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if streams := got.Streams(); len(streams) != 2 || streams[0] != "a" || streams[1] != "b" {
		t.Fatalf("restored streams = %v", streams)
	}
	snap, err := got.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Events != want.Events || snap.NNZ != want.NNZ || !snap.Started ||
		snap.Now != want.Now || snap.Fitness != want.Fitness {
		t.Fatalf("restored a = %+v, want %+v", snap, want)
	}
	if snap.QueueCap != 17 || snap.Backpressure != "drop-oldest" {
		t.Fatalf("serving config not restored: cap=%d bp=%q", snap.QueueCap, snap.Backpressure)
	}
	if snapB, _ := got.Snapshot("b"); snapB.Started || snapB.NNZ != 1 {
		t.Fatalf("restored b = %+v", snapB)
	}
	// The restored engine is live: it accepts and applies new work.
	if err := got.Push(bg, "a", []int{0, 0}, 1, want.Now); err != nil {
		t.Fatal(err)
	}
	if err := got.Flush(bg, "a"); err != nil {
		t.Fatal(err)
	}
	if snap, _ = got.Snapshot("a"); snap.Events != want.Events+1 {
		t.Fatalf("restored engine did not apply new event: %d", snap.Events)
	}

	// A stream's own checkpoint restores to the same state, and a
	// truncated one fails cleanly.
	st, err := got.Stream("a")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Checkpoint(bg, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() != snap.Events || !tr.Started() {
		t.Fatalf("restored tracker: events=%d started=%v, want %d started", tr.Events(), tr.Started(), snap.Events)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()[:buf.Len()-50])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestEngineConcurrentShardsAndReaders is the engine-level race test: all
// shards ingest batches in parallel while reader goroutines hammer the
// wait-free snapshot and predict paths across every stream — half through
// name-keyed calls, half through pinned Stream handles.
func TestEngineConcurrentShardsAndReaders(t *testing.T) {
	const (
		shards  = 4
		batches = 60
		batchSz = 16
	)
	e := NewEngine()
	defer e.Close()
	names := make([]string, shards)
	handles := make([]*Stream, shards)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		cfg := validStreamConfig()
		cfg.PublishEvery = 8 // publish often so readers see fresh models
		st, err := e.AddStream(names[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = st
		fillAndStart(t, e, names[i], int64(100+i))
	}
	var baseline uint64
	for _, n := range names {
		snap, _ := e.Snapshot(n)
		baseline += snap.Ingested
	}

	var readers, producers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: snapshots, predictions, and stream listings on every shard.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, n := range names {
					var snap Snapshot
					if r%2 == 0 {
						snap = handles[i].Snapshot()
						_, _ = handles[i].Predict([]int{r % 5, r % 4}, 0)
					} else {
						var err error
						snap, err = e.Snapshot(n)
						if err != nil {
							t.Error(err)
							return
						}
						_, _ = e.Predict(n, []int{r % 5, r % 4}, 0)
					}
					if snap.Started && snap.Factors == nil {
						t.Error("started snapshot without factors")
						return
					}
				}
				_ = e.Streams()
			}
		}(r)
	}
	// One producer per shard: per-stream order stays sequential while the
	// shards ingest fully in parallel. Even shards push through the handle,
	// odd shards through the name-keyed path — same pipeline underneath.
	var pushed atomic.Uint64
	for i, n := range names {
		producers.Add(1)
		go func(i int, name string, seed int64) {
			defer producers.Done()
			rng := rand.New(rand.NewSource(seed))
			tm := int64(1000)
			for b := 0; b < batches; b++ {
				batch := make([]Event, batchSz)
				for j := range batch {
					tm += int64(rng.Intn(2))
					batch[j] = Event{Coord: []int{rng.Intn(5), rng.Intn(4)}, Value: 1, Time: tm}
				}
				var err error
				if i%2 == 0 {
					err = handles[i].PushBatch(bg, batch)
				} else {
					err = e.PushBatch(bg, name, batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
				pushed.Add(batchSz)
			}
		}(i, n, int64(200+i))
	}
	producers.Wait()
	close(stop)
	readers.Wait()

	if err := e.FlushAll(bg); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range names {
		snap, _ := e.Snapshot(n)
		if snap.IngestErrors != 0 {
			t.Fatalf("%s: %d ingest errors, last %q", n, snap.IngestErrors, snap.LastError)
		}
		total += snap.Ingested
	}
	if want := pushed.Load(); total-baseline != want {
		t.Fatalf("ingested %d, pushed %d", total-baseline, want)
	}
}

// BenchmarkEngineShards measures aggregate ingestion throughput as the
// number of independent streams grows. Each shard has its own single
// writer, so events/sec should scale near-linearly with shard count until
// the cores run out. Run with -cpu to pin GOMAXPROCS.
func BenchmarkEngineShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := NewEngine()
			defer e.Close()
			names := make([]string, shards)
			for i := range names {
				names[i] = fmt.Sprintf("s%d", i)
				cfg := validStreamConfig()
				cfg.MailboxCapacity = 1024
				cfg.PublishEvery = 4096
				if _, err := e.AddStream(names[i], cfg); err != nil {
					b.Fatal(err)
				}
				fillAndStart(b, e, names[i], int64(i))
			}
			const batchSz = 256
			per := (b.N + shards - 1) / shards
			// Pre-build each shard's batches outside the timed region.
			all := make([][][]Event, shards)
			for i := range all {
				rng := rand.New(rand.NewSource(int64(1000 + i)))
				tm := int64(1000)
				for n := 0; n < per; n += batchSz {
					sz := batchSz
					if per-n < sz {
						sz = per - n
					}
					batch := make([]Event, sz)
					for j := range batch {
						if rng.Intn(64) == 0 {
							tm++
						}
						batch[j] = Event{Coord: []int{rng.Intn(5), rng.Intn(4)}, Value: 1, Time: tm}
					}
					all[i] = append(all[i], batch)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := range names {
				wg.Add(1)
				go func(name string, batches [][]Event) {
					defer wg.Done()
					for _, batch := range batches {
						if err := e.PushBatch(bg, name, batch); err != nil {
							b.Error(err)
							return
						}
					}
				}(names[i], all[i])
			}
			wg.Wait()
			if err := e.FlushAll(bg); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var total uint64
			for _, n := range names {
				snap, _ := e.Snapshot(n)
				total += snap.Stats.Ingested
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// TestEngineRateLimit covers per-stream admission control: the token
// bucket admits up to its burst, refuses beyond it with a typed
// *RateLimitError carrying a retry hint, never queues a refused batch,
// and reports its decisions in the snapshot's Admission view.
func TestEngineRateLimit(t *testing.T) {
	e := NewEngine()
	defer e.Close()

	cfg := validStreamConfig()
	cfg.RateLimit = 1 // 1 event/sec…
	cfg.RateBurst = 3 // …with 3 admissible up front
	st, err := e.AddStream("lim", cfg)
	if err != nil {
		t.Fatal(err)
	}

	batch := func(n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Coord: []int{i % 5, i % 4}, Value: 1, Time: 0}
		}
		return evs
	}

	// The full bucket admits exactly the burst…
	if err := st.PushBatch(bg, batch(3)); err != nil {
		t.Fatalf("burst-sized batch refused: %v", err)
	}
	// …then refuses, atomically for the whole batch, with the typed error.
	err = st.PushBatch(bg, batch(2))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-limit push = %v, want ErrRateLimited", err)
	}
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("over-limit push = %T, want *RateLimitError", err)
	}
	if rl.Stream != "lim" || rl.RetryAfter <= 0 {
		t.Fatalf("RateLimitError = %+v", rl)
	}
	// At 1 token/sec a 2-event batch is at most 2s away.
	if rl.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want ≤ 2s", rl.RetryAfter)
	}

	if err := st.Flush(bg); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Admission == nil {
		t.Fatal("no Admission view on a rate-limited stream")
	}
	if snap.Admission.AcceptedEvents != 3 || snap.Admission.LimitedEvents != 2 || snap.Admission.LimitedBatches != 1 {
		t.Fatalf("admission counters: %+v", snap.Admission)
	}
	if snap.Admission.RateLimit != 1 || snap.Admission.Burst != 3 {
		t.Fatalf("admission config echo: %+v", snap.Admission)
	}
	// Refused events never reached the mailbox or the tracker: only the
	// admitted 3 were applied.
	if snap.Ingested != 3 {
		t.Fatalf("ingested = %d, want 3 (refused batch must not queue)", snap.Ingested)
	}

	// Engine.Metrics carries the same view.
	for _, sm := range e.Metrics().Streams {
		if sm.Name != "lim" {
			continue
		}
		if sm.Admission == nil || sm.Admission.LimitedBatches != 1 {
			t.Fatalf("Metrics admission view: %+v", sm.Admission)
		}
	}

	// An unlimited stream carries no admission state at all.
	plain, err := e.AddStream("plain", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Snapshot().Admission != nil {
		t.Fatal("unlimited stream reports an Admission view")
	}
}

// TestStreamConfigRateLimitValidation pins the config contract around the
// admission knobs.
func TestStreamConfigRateLimitValidation(t *testing.T) {
	base := validStreamConfig()

	neg := base
	neg.RateLimit = -1
	if _, err := New(neg.Config); err != nil {
		t.Fatal(err) // tracker config itself is fine
	}
	if err := neg.withDefaults().validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative RateLimit = %v, want ErrConfig", err)
	}

	orphanBurst := base
	orphanBurst.RateBurst = 10
	if err := orphanBurst.withDefaults().validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("RateBurst without RateLimit = %v, want ErrConfig", err)
	}

	// Default burst: ceil(rate), floored at 1.
	small := base
	small.RateLimit = 0.25
	if got := small.withDefaults().RateBurst; got != 1 {
		t.Fatalf("default burst for rate 0.25 = %g, want 1", got)
	}
	big := base
	big.RateLimit = 1500.5
	if got := big.withDefaults().RateBurst; got != 1501 {
		t.Fatalf("default burst for rate 1500.5 = %g, want 1501", got)
	}
}
