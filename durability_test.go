package slicenstitch

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"slicenstitch/internal/repl"
	"slicenstitch/internal/wal"
)

// soakIters returns the iteration count for the crash-recovery property
// tests: def normally, SNS_SOAK_ITERS when the nightly soak workflow
// cranks it up.
func soakIters(def int) int {
	if v := os.Getenv("SNS_SOAK_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// durOp is one logged operation of a durable stream — the unit the WAL
// assigns one LSN to. The property tests replay prefixes of an op list
// into a reference tracker to reconstruct "the uninterrupted run over
// the same event prefix".
type durOp struct {
	kind  byte // recBatch, recStart, recAdvance
	batch []Event
	tm    int64
}

// genDurOps builds a stream history: fill batches, one Start, then live
// batches with occasional pure-advance ops — including invalid events
// (via genBatchEvents) so recovery replays the rejection paths too.
func genDurOps(rng *rand.Rand, dims []int, fillEvents, liveEvents int) []durOp {
	var ops []durOp
	chunk := func(events []Event) {
		for len(events) > 0 {
			n := 1 + rng.Intn(7)
			if n > len(events) {
				n = len(events)
			}
			ops = append(ops, durOp{kind: recBatch, batch: events[:n]})
			events = events[n:]
		}
	}
	fill := genBatchEvents(rng, dims, fillEvents, 0)
	chunk(fill)
	ops = append(ops, durOp{kind: recStart})
	last := int64(0)
	for _, ev := range fill {
		if ev.Time > last {
			last = ev.Time
		}
	}
	live := genBatchEvents(rng, dims, liveEvents, last)
	chunk(live)
	// Sprinkle advances in (keeping chronological order with neighbours).
	for i := len(ops) - 1; i > 0; i-- {
		if ops[i].kind == recBatch && ops[i-1].kind == recBatch && rng.Intn(8) == 0 {
			tm := ops[i].batch[0].Time
			rest := append([]durOp{{kind: recAdvance, tm: tm}}, ops[i:]...)
			ops = append(ops[:i], rest...)
		}
	}
	return ops
}

// applyOpsToTracker replays ops through a bare Tracker — the reference
// "uninterrupted run". Application errors (rejected events, stale
// advances) are deliberately ignored, matching both the engine's writer
// and WAL replay.
func applyOpsToTracker(t *testing.T, cfg Config, ops []durOp) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.kind {
		case recBatch:
			tr.PushBatch(op.batch)
		case recStart:
			tr.Start()
		case recAdvance:
			tr.AdvanceTo(op.tm)
		}
	}
	return tr
}

// applyOpsToStream replays ops through a stream handle. Batch slices are
// cloned because the engine takes ownership.
func applyOpsToStream(t *testing.T, st *Stream, ops []durOp) {
	t.Helper()
	ctx := context.Background()
	for _, op := range ops {
		switch op.kind {
		case recBatch:
			batch := make([]Event, len(op.batch))
			copy(batch, op.batch)
			for i := range batch {
				batch[i].Coord = append([]int(nil), op.batch[i].Coord...)
			}
			if err := st.PushBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		case recStart:
			st.Start(ctx) // second starts, if any, fail deterministically
		case recAdvance:
			st.AdvanceTo(ctx, op.tm) // stale advances fail deterministically
		}
	}
}

// durablePrefix inspects a crashed stream directory and returns how many
// ops survived: the WAL tail end or the newest usable checkpoint's LSN,
// whichever is greater. LSN k means ops[0:k] are durable.
func durablePrefix(t *testing.T, streamDir string) uint64 {
	t.Helper()
	var from uint64
	lsns, err := listCheckpoints(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, lsn := range lsns {
		if data, err := readFrameFile(ckptPath(streamDir, lsn)); err == nil {
			if _, err := Restore(bytes.NewReader(data)); err == nil {
				from = lsn
				break
			}
		}
	}
	next, err := wal.Replay(filepath.Join(streamDir, "wal"), from, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next < from {
		next = from
	}
	return next
}

// checkpointBytes serializes a tracker state for bit-level comparison.
func checkpointBytes(t *testing.T, tr *Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func streamCheckpointBytes(t *testing.T, st *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Checkpoint(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func durTestConfig(alg Algorithm, seed int64) StreamConfig {
	return StreamConfig{Config: Config{
		Dims: []int{5, 4}, W: 3, Period: 5, Rank: 3,
		Algorithm: alg, Theta: 2, ALSIters: 3, Seed: seed,
	}}
}

func durTestOptions(dir string, fsync FsyncPolicy) Options {
	return Options{Durability: &DurabilityOptions{
		Dir:             dir,
		Fsync:           fsync,
		FsyncEvery:      time.Millisecond,
		SegmentBytes:    2048,
		CheckpointEvery: 120,
	}}
}

// The headline crash-recovery property: kill a durable engine at an
// arbitrary point mid-ingest, recover from disk, and the recovered
// tracker state is bit-identical to an uninterrupted run over the same
// durable event prefix — and STAYS bit-identical when both continue with
// the remaining ops, which is what proves the checkpoint carries the
// exact decomposer state (Gram matrices, sampler draw position) and not
// just the factors. Exercised for the deterministic and the sampled
// variant, across fsync policies.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	iters := soakIters(4)
	for _, alg := range []Algorithm{SNSRndPlus, SNSVecPlus} {
		for _, fsync := range []FsyncPolicy{FsyncNever, FsyncAlways} {
			for seed := int64(1); seed <= int64(iters); seed++ {
				t.Run(fmt.Sprintf("%s/%s/%d", alg, fsync, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					cfg := durTestConfig(alg, seed)
					ops := genDurOps(rng, cfg.Dims, 80, 260)
					crashAt := 1 + rng.Intn(len(ops))

					dir := t.TempDir()
					e, err := Open(durTestOptions(dir, fsync))
					if err != nil {
						t.Fatal(err)
					}
					st, err := e.AddStream("s", cfg)
					if err != nil {
						t.Fatal(err)
					}
					applyOpsToStream(t, st, ops[:crashAt])
					e.crash()

					streamDir := filepath.Join(streamsRoot(dir), encodeStreamDir("s"))
					n := durablePrefix(t, streamDir)
					if n > uint64(crashAt) {
						t.Fatalf("durable prefix %d exceeds the %d ops submitted", n, crashAt)
					}
					if fsync == FsyncAlways {
						// PushBatch is asynchronous — queued batches may die
						// with the crash under any policy — but control acks
						// (Start, AdvanceTo) are group-committed and fsynced
						// before the reply, so everything up to the last
						// acknowledged control op must have survived.
						lastCtl := -1
						for i := 0; i < crashAt; i++ {
							if ops[i].kind != recBatch {
								lastCtl = i
							}
						}
						if int(n) <= lastCtl {
							t.Fatalf("FsyncAlways: durable prefix %d lost acked control op at %d", n, lastCtl)
						}
					}

					e2, err := Open(durTestOptions(dir, fsync))
					if err != nil {
						t.Fatalf("recovery: %v", err)
					}
					defer e2.Close()
					st2, err := e2.Stream("s")
					if err != nil {
						t.Fatal(err)
					}
					ref := applyOpsToTracker(t, cfg.Config, ops[:n])
					if !bytes.Equal(streamCheckpointBytes(t, st2), checkpointBytes(t, ref)) {
						t.Fatalf("recovered state differs from uninterrupted run over %d/%d ops", n, len(ops))
					}

					// Continue both runs with the lost + remaining ops: only
					// exact auxiliary state keeps them bit-identical.
					applyOpsToStream(t, st2, ops[n:])
					for _, op := range ops[n:] {
						switch op.kind {
						case recBatch:
							ref.PushBatch(op.batch)
						case recStart:
							ref.Start()
						case recAdvance:
							ref.AdvanceTo(op.tm)
						}
					}
					if !bytes.Equal(streamCheckpointBytes(t, st2), checkpointBytes(t, ref)) {
						t.Fatalf("recovered run diverged from reference after continuing %d ops", len(ops)-int(n))
					}
				})
			}
		}
	}
}

// copyTree copies a data directory so a crash image can be mutilated
// without touching the original.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path of the highest-LSN WAL segment.
func lastSegment(t *testing.T, walDir string) string {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}

// The torn-record property: cut the final WAL segment at an arbitrary
// byte offset — including mid-frame, the shape of a real crash — and
// recovery must still produce the uninterrupted-prefix state, discarding
// the torn record.
func TestCrashRecoveryTornFinalRecord(t *testing.T) {
	iters := soakIters(6)
	seed := int64(99)
	rng := rand.New(rand.NewSource(seed))
	cfg := durTestConfig(SNSRndPlus, seed)
	ops := genDurOps(rng, cfg.Dims, 80, 220)

	dir := t.TempDir()
	e, err := Open(durTestOptions(dir, FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOpsToStream(t, st, ops)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	streamRel := filepath.Join("streams", encodeStreamDir("s"))
	origSeg := lastSegment(t, filepath.Join(dir, streamRel, "wal"))
	segData, err := os.ReadFile(origSeg)
	if err != nil {
		t.Fatal(err)
	}
	if len(segData) < 32 {
		t.Fatalf("last segment suspiciously small (%d bytes)", len(segData))
	}
	for i := 0; i < iters; i++ {
		// Cut anywhere in the record area (past the 16-byte header).
		cut := 16 + rng.Intn(len(segData)-16)
		crashDir := t.TempDir()
		copyTree(t, dir, crashDir)
		seg := lastSegment(t, filepath.Join(crashDir, streamRel, "wal"))
		if err := os.WriteFile(seg, segData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		n := durablePrefix(t, filepath.Join(crashDir, streamRel))
		e2, err := Open(durTestOptions(crashDir, FsyncNever))
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		st2, err := e2.Stream("s")
		if err != nil {
			t.Fatal(err)
		}
		ref := applyOpsToTracker(t, cfg.Config, ops[:n])
		if !bytes.Equal(streamCheckpointBytes(t, st2), checkpointBytes(t, ref)) {
			t.Fatalf("cut %d: recovered state differs from prefix run over %d ops", cut, n)
		}
		e2.Close()
	}
}

// A stream added but never fed must survive a crash: the config file and
// empty WAL are durable before AddStream returns.
func TestRecoveryOfFreshlyAddedStream(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := durTestConfig(SNSRndPlus, 1)
	cfg.MailboxCapacity = 17
	cfg.Backpressure = BackpressureDropOldest
	cfg.PublishEvery = 33
	if _, err := e.AddStream("fresh", cfg); err != nil {
		t.Fatal(err)
	}
	e.crash()

	e2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st, err := e2.Stream("fresh")
	if err != nil {
		t.Fatal(err)
	}
	got := st.Config()
	if got.MailboxCapacity != 17 || got.Backpressure != BackpressureDropOldest || got.PublishEvery != 33 {
		t.Fatalf("recovered config %+v lost serving knobs", got)
	}
	if snap := st.Snapshot(); snap.Started {
		t.Fatal("recovered stream should be unstarted")
	}
}

// RemoveStream on a durable engine is permanent: recovery must not
// resurrect it.
func TestRemoveStreamDeletesDurableState(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStream("doomed", durTestConfig(SNSRndPlus, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStream("keeper", durTestConfig(SNSRndPlus, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveStream("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Streams(); len(got) != 1 || got[0] != "keeper" {
		t.Fatalf("recovered streams %v, want [keeper]", got)
	}
}

// Stream names with path-hostile characters must round-trip through the
// directory encoding.
func TestDurableStreamNameEncoding(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a/b", "über", "dots..", "x%41", "MiXed-case_0.9"}
	for i, name := range names {
		if _, err := e.AddStream(name, durTestConfig(SNSVecPlus, int64(i+1))); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	want := append([]string(nil), names...)
	sort.Strings(want)
	got := e2.Streams()
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
}

// Background checkpoints must actually fire and reclaim WAL segments;
// recovery must then start from the checkpoint, not genesis.
func TestBackgroundCheckpointTruncatesWAL(t *testing.T) {
	seed := int64(5)
	rng := rand.New(rand.NewSource(seed))
	cfg := durTestConfig(SNSVecPlus, seed)
	ops := genDurOps(rng, cfg.Dims, 80, 400)

	dir := t.TempDir()
	opts := durTestOptions(dir, FsyncNever)
	opts.Durability.CheckpointEvery = 60
	opts.Durability.SegmentBytes = 1024
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOpsToStream(t, st, ops)
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	streamDir := filepath.Join(streamsRoot(dir), encodeStreamDir("s"))
	lsns, err := listCheckpoints(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) == 0 {
		t.Fatal("no background checkpoint was written")
	}
	if len(lsns) > 2 {
		t.Fatalf("retention kept %d checkpoints, want <= 2", len(lsns))
	}
	// Genesis replay must now be impossible (old segments reclaimed) …
	if _, err := wal.Replay(filepath.Join(streamDir, "wal"), 0, nil); err == nil {
		t.Fatal("WAL still replays from genesis — truncation never happened")
	}
	// … yet recovery still lands on the exact uninterrupted state.
	e2, err := Open(durTestOptions(dir, FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st2, err := e2.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	ref := applyOpsToTracker(t, cfg.Config, ops)
	if !bytes.Equal(streamCheckpointBytes(t, st2), checkpointBytes(t, ref)) {
		t.Fatal("post-truncation recovery diverged from the uninterrupted run")
	}
}

// --- Engine restore error paths -------------------------------------------

// corruptFile flips bytes in the middle of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xa5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildDurableDir runs a stream to completion and returns the data dir
// and the stream's directory, with at least one checkpoint on disk.
func buildDurableDir(t *testing.T, segmentBytes int64) (string, string, []durOp, StreamConfig) {
	t.Helper()
	seed := int64(21)
	rng := rand.New(rand.NewSource(seed))
	cfg := durTestConfig(SNSVecPlus, seed)
	ops := genDurOps(rng, cfg.Dims, 80, 200)
	dir := t.TempDir()
	opts := durTestOptions(dir, FsyncNever)
	opts.Durability.CheckpointEvery = 80
	opts.Durability.SegmentBytes = segmentBytes
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOpsToStream(t, st, ops)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(streamsRoot(dir), encodeStreamDir("s")), ops, cfg
}

// A corrupt newest checkpoint falls back to an older one or to genesis
// replay when the WAL still covers it (huge segments: nothing truncated).
func TestRecoveryFallsBackPastCorruptCheckpoint(t *testing.T) {
	dir, streamDir, ops, cfg := buildDurableDir(t, 64<<20)
	lsns, err := listCheckpoints(streamDir)
	if err != nil || len(lsns) == 0 {
		t.Fatalf("want checkpoints, got %v (%v)", lsns, err)
	}
	for _, lsn := range lsns {
		corruptFile(t, ckptPath(streamDir, lsn))
	}
	e, err := Open(durTestOptions(dir, FsyncNever))
	if err != nil {
		t.Fatalf("recovery with corrupt checkpoints but full WAL: %v", err)
	}
	defer e.Close()
	st, err := e.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	ref := applyOpsToTracker(t, cfg.Config, ops)
	if !bytes.Equal(streamCheckpointBytes(t, st), checkpointBytes(t, ref)) {
		t.Fatal("genesis-replay fallback diverged from the uninterrupted run")
	}
}

// When every checkpoint is corrupt AND truncation has reclaimed the early
// WAL, the stream is genuinely unrecoverable — Open must fail loudly, not
// serve a state with a hole in it.
func TestRecoveryFailsWhenCheckpointCorruptAndWALTruncated(t *testing.T) {
	dir, streamDir, _, _ := buildDurableDir(t, 1024)
	lsns, err := listCheckpoints(streamDir)
	if err != nil || len(lsns) == 0 {
		t.Fatalf("want checkpoints, got %v (%v)", lsns, err)
	}
	// Precondition: truncation must actually have happened.
	if _, err := wal.Replay(filepath.Join(streamDir, "wal"), 0, nil); err == nil {
		t.Skip("truncation did not reclaim the early WAL in this run")
	}
	for _, lsn := range lsns {
		corruptFile(t, ckptPath(streamDir, lsn))
	}
	if _, err := Open(durTestOptions(dir, FsyncNever)); err == nil {
		t.Fatal("recovery served a stream whose history has a hole")
	}
}

// A truncated (mid-stream cut) checkpoint file is detected by its frame
// and skipped like a corrupt one.
func TestRecoveryRejectsTruncatedCheckpointFile(t *testing.T) {
	dir, streamDir, ops, cfg := buildDurableDir(t, 64<<20)
	lsns, err := listCheckpoints(streamDir)
	if err != nil || len(lsns) == 0 {
		t.Fatalf("want checkpoints, got %v (%v)", lsns, err)
	}
	for _, lsn := range lsns {
		path := ckptPath(streamDir, lsn)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(durTestOptions(dir, FsyncNever))
	if err != nil {
		t.Fatalf("recovery with truncated checkpoints but full WAL: %v", err)
	}
	defer e.Close()
	st, err := e.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	ref := applyOpsToTracker(t, cfg.Config, ops)
	if !bytes.Equal(streamCheckpointBytes(t, st), checkpointBytes(t, ref)) {
		t.Fatal("recovery after truncated checkpoint diverged")
	}
}

// A corrupt stream config file must fail recovery with a clear error —
// the stream's identity and geometry are gone.
func TestRecoveryRejectsCorruptConfig(t *testing.T) {
	dir, streamDir, _, _ := buildDurableDir(t, 64<<20)
	corruptFile(t, filepath.Join(streamDir, "config"))
	if _, err := Open(durTestOptions(dir, FsyncNever)); err == nil {
		t.Fatal("recovery accepted a corrupt stream config")
	}
}

// Restore must reject checkpoints from future format versions.
func TestRestoreRejectsVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpointHeader{Version: 99, Config: Config{Dims: []int{2}, Period: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("tracker restore of v99: %v", err)
	}
}

// The engine's live checkpoint capture (opCheckpoint, on the writer
// goroutine) is stamped with the shard's WAL position. A replication
// bootstrap taken before any checkpoint file exists goes through it: the
// blob holds exactly the effects of records [0, LSN), so a follower that
// restores it and tails from LSN neither skips nor repeats a record.
func TestEngineCheckpointLSNStamp(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cfg := durTestConfig(SNSVecPlus, 3)
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ops := genDurOps(rng, cfg.Dims, 60, 40)
	applyOpsToStream(t, st, ops)
	if lsns, err := listCheckpoints(filepath.Join(streamsRoot(dir), encodeStreamDir("s"))); err != nil || len(lsns) != 0 {
		t.Fatalf("checkpoint files %v (%v); the live-capture path needs none", lsns, err)
	}
	var buf bytes.Buffer
	lsn, err := e.WriteBootstrap(context.Background(), "s", &buf)
	if err != nil {
		t.Fatal(err)
	}
	gotLSN, _, ckpt, err := repl.ReadBootstrap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(ops)) || gotLSN != lsn {
		t.Fatalf("bootstrap LSN %d (blob %d), want %d: one WAL record per op", lsn, gotLSN, len(ops))
	}
	ref := applyOpsToTracker(t, cfg.Config, ops)
	if !bytes.Equal(ckpt, checkpointBytes(t, ref)) {
		t.Fatal("bootstrap checkpoint differs from the uninterrupted run over records [0, LSN)")
	}
}

// Version-1 tracker checkpoints — no aux state — must still restore
// (Gram matrices recomputed, sampler reseeded: the documented v1
// semantics).
func TestRestoreAcceptsVersion1Formats(t *testing.T) {
	cfg := durTestConfig(SNSVecPlus, 7)
	tr, err := New(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, op := range genDurOps(rng, cfg.Dims, 60, 60) {
		switch op.kind {
		case recBatch:
			tr.PushBatch(op.batch)
		case recStart:
			tr.Start()
		case recAdvance:
			tr.AdvanceTo(op.tm)
		}
	}
	// Hand-assemble a v1 tracker checkpoint: v1 header + window + model,
	// no aux block.
	var v1tr bytes.Buffer
	if err := gob.NewEncoder(&v1tr).Encode(checkpointHeader{
		Version: 1, Config: tr.cfg, Started: tr.started, Events: tr.events,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.win.Encode(&v1tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.dec.Model().Encode(&v1tr); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(v1tr.Bytes()))
	if err != nil {
		t.Fatalf("v1 tracker restore: %v", err)
	}
	if restored.Events() != tr.Events() || restored.Now() != tr.Now() {
		t.Fatal("v1 tracker restore lost state")
	}
}

// A new stream must never inherit a dead stream's WAL/checkpoint debris
// (e.g. a RemoveStream the process died inside of, leaving files but no
// config).
func TestAddStreamWipesDebrisDirectory(t *testing.T) {
	dir := t.TempDir()
	name := "reborn"
	// Fabricate debris: a stream dir with WAL segments but no config.
	debris := filepath.Join(streamsRoot(dir), encodeStreamDir(name))
	if err := os.MkdirAll(filepath.Join(debris, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(debris, "wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{recStart}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	e, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Streams(); len(got) != 0 {
		t.Fatalf("debris recovered as streams: %v", got)
	}
	st, err := e.AddStream(name, durTestConfig(SNSVecPlus, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The fresh stream starts at LSN 0 — the debris records are gone.
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := wal.Replay(filepath.Join(debris, "wal"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0 {
		t.Fatalf("new stream inherited %d debris records", next)
	}
	e2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if snap, err := e2.Snapshot(name); err != nil || snap.Started {
		t.Fatalf("recovered reborn stream wrong: %+v err %v", snap, err)
	}
}
