package slicenstitch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"slicenstitch/internal/repl"
)

// leaderServer exposes an engine's replication surface the way snsserve
// does: the stream listing plus the tail and bootstrap endpoints.
func leaderServer(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	rsrv := &repl.Server{
		Tail: func(ctx context.Context, stream string, from uint64, maxBytes int, wait time.Duration) (repl.Chunk, error) {
			c, err := e.TailWAL(ctx, stream, from, maxBytes, wait)
			if err != nil {
				return repl.Chunk{}, err
			}
			return repl.Chunk{Records: c.Records, Next: c.Next, FlushedLSN: c.FlushedLSN, OldestLSN: c.OldestLSN, More: c.More}, nil
		},
		Bootstrap: e.WriteBootstrap,
		MapError: func(err error) (int, string) {
			switch {
			case errors.Is(err, ErrWALGap):
				return http.StatusGone, repl.CodeGap
			case errors.Is(err, ErrStreamNotFound):
				return http.StatusNotFound, repl.CodeNotFound
			}
			return http.StatusInternalServerError, "internal"
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/streams", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(rw, `{"streams":[`)
		for i, n := range e.Streams() {
			if i > 0 {
				fmt.Fprint(rw, ",")
			}
			fmt.Fprintf(rw, `{"name":%q}`, n)
		}
		fmt.Fprint(rw, `]}`)
	})
	mux.HandleFunc("GET /v1/streams/{name}/wal", rsrv.HandleTail)
	mux.HandleFunc("GET /v1/streams/{name}/checkpoint", rsrv.HandleBootstrap)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// followerOptions builds fast-converging follower options against ts.
func followerOptions(dir string, ts *httptest.Server) Options {
	opts := durTestOptions(dir, FsyncNever)
	opts.Follower = &FollowerOptions{
		Leader:      ts.URL,
		SyncEvery:   20 * time.Millisecond,
		PollTimeout: 200 * time.Millisecond,
		RetryMin:    5 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		HTTPClient:  ts.Client(),
	}
	return opts
}

// waitConverged polls until the follower's stream reports the target
// applied LSN with zero lag, returning its final snapshot.
func waitConverged(t *testing.T, f *Engine, stream string, target uint64) Snapshot {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if snap, err := f.Snapshot(stream); err == nil &&
			snap.Replication != nil && snap.Replication.State == "tailing" &&
			snap.AppliedLSN == target && snap.Replication.LagLSNs == 0 {
			return snap
		}
		if time.Now().After(deadline) {
			snap, err := f.Snapshot(stream)
			t.Fatalf("follower never converged to LSN %d: snap=%+v err=%v", target, snap.Replication, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerConvergesBitIdentical is the tentpole correctness test: a
// follower bootstrapped from a live leader converges to byte-identical
// tracker state — same factors, same Gram matrices, same sampler
// position — at the same LSN.
func TestFollowerConvergesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := durTestConfig(SNSVecPlus, 7)
	ops := genDurOps(rng, cfg.Config.Dims, 90, 220)

	leader, err := Open(durTestOptions(t.TempDir(), FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	st, err := leader.AddStream("metricsA", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Half the history lands before the follower exists, half while it
	// is actively tailing.
	half := len(ops) / 2
	applyOpsToStream(t, st, ops[:half])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ts := leaderServer(t, leader)
	follower, err := Open(followerOptions(t.TempDir(), ts))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	applyOpsToStream(t, st, ops[half:])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	leaderSnap, err := leader.Snapshot("metricsA")
	if err != nil {
		t.Fatal(err)
	}
	if leaderSnap.AppliedLSN != uint64(len(ops)) {
		t.Fatalf("leader applied %d of %d ops", leaderSnap.AppliedLSN, len(ops))
	}

	followerSnap := waitConverged(t, follower, "metricsA", leaderSnap.AppliedLSN)
	if followerSnap.WALNextLSN != leaderSnap.WALNextLSN {
		t.Fatalf("follower WAL at %d, leader at %d", followerSnap.WALNextLSN, leaderSnap.WALNextLSN)
	}

	fst, err := follower.Stream("metricsA")
	if err != nil {
		t.Fatal(err)
	}
	want := streamCheckpointBytes(t, st)
	got := streamCheckpointBytes(t, fst)
	if !bytes.Equal(want, got) {
		t.Fatalf("follower state diverged from leader at LSN %d: %d vs %d checkpoint bytes",
			leaderSnap.AppliedLSN, len(got), len(want))
	}

	// The replica serves model reads from the replicated state.
	if err := fst.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	lv, err := st.Predict([]int{1, 2}, cfg.Config.W-1)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := fst.Predict([]int{1, 2}, cfg.Config.W-1)
	if err != nil {
		t.Fatal(err)
	}
	if lv != fv {
		t.Fatalf("follower predicts %v, leader %v", fv, lv)
	}
}

// A follower republishes its model when its writer goes idle, just as the
// leader does: with fitness publishes effectively off, its snapshot still
// reaches the leader's event count and factors without a Flush.
func TestFollowerSnapshotFreshWithoutFlush(t *testing.T) {
	cfg := durTestConfig(SNSVecPlus, 13)
	cfg.PublishEvery = 1 << 30
	ops := genDurOps(rand.New(rand.NewSource(13)), cfg.Config.Dims, 90, 220)

	leader, err := Open(durTestOptions(t.TempDir(), FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	st, err := leader.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := len(ops) / 2
	applyOpsToStream(t, st, ops[:half])
	ts := leaderServer(t, leader)
	follower, err := Open(followerOptions(t.TempDir(), ts))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	// Let the follower bootstrap and start tailing, so the rest of the
	// history reaches it through replication applies.
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, follower, "s", st.Snapshot().AppliedLSN)
	// Batches only: a replicated advance record forces a full publish,
	// which would make the follower fresh without the idle republish.
	var batches []durOp
	for _, op := range ops[half:] {
		if op.kind == recBatch {
			batches = append(batches, op)
		}
	}
	applyOpsToStream(t, st, batches)
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := st.Snapshot()
	if !want.Started {
		t.Fatal("leader stream not started")
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		snap, err := follower.Snapshot("s")
		if err == nil && snap.Events == want.Events {
			if !reflect.DeepEqual(snap.Factors, want.Factors) {
				t.Fatal("follower factors differ from the leader's at the same event count")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower snapshot never reached the leader's %d events: %d (%v)", want.Events, snap.Events, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerKilledMidTailResumes crashes the follower process mid-tail
// (un-flushed local WAL buffer dropped, like a real kill) and reopens it
// over the same directory: it must resume from its durable position and
// still converge to bit-identical state.
func TestFollowerKilledMidTailResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := durTestConfig(SNSRndPlus, 11)
	ops := genDurOps(rng, cfg.Config.Dims, 90, 260)

	leader, err := Open(durTestOptions(t.TempDir(), FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	st, err := leader.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	third := len(ops) / 3
	applyOpsToStream(t, st, ops[:third])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ts := leaderServer(t, leader)
	fdir := t.TempDir()
	follower, err := Open(followerOptions(fdir, ts))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, follower, "s", uint64(third))

	// More leader history, then kill the follower somewhere mid-tail.
	applyOpsToStream(t, st, ops[third:2*third])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if snap, err := follower.Snapshot("s"); err == nil && snap.AppliedLSN > uint64(third) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower made no progress before the kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	follower.crash()

	applyOpsToStream(t, st, ops[2*third:])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	leaderSnap, err := leader.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}

	follower2, err := Open(followerOptions(fdir, ts))
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	waitConverged(t, follower2, "s", leaderSnap.AppliedLSN)

	fst, err := follower2.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if want, got := streamCheckpointBytes(t, st), streamCheckpointBytes(t, fst); !bytes.Equal(want, got) {
		t.Fatalf("restarted follower diverged from leader at LSN %d", leaderSnap.AppliedLSN)
	}
}

// TestFollowerRebootstrapsAfterGap retires a follower long enough for the
// leader to checkpoint and truncate the WAL past the follower's position;
// on return the tail read gets wal_gap and the follower must re-bootstrap
// from the newest checkpoint — and still converge bit-identically.
func TestFollowerRebootstrapsAfterGap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := durTestConfig(SNSVecPlus, 13)
	ops := genDurOps(rng, cfg.Config.Dims, 90, 320)

	ldir := t.TempDir()
	lopts := durTestOptions(ldir, FsyncNever)
	lopts.Durability.CheckpointEvery = 40
	lopts.Durability.KeepCheckpoints = 1
	lopts.Durability.SegmentBytes = 512
	leader, err := Open(lopts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	st, err := leader.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	third := len(ops) / 3
	applyOpsToStream(t, st, ops[:third])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ts := leaderServer(t, leader)
	fdir := t.TempDir()
	follower, err := Open(followerOptions(fdir, ts))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, follower, "s", uint64(third))
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Enough further history that background checkpoints move the WAL
	// floor above the offline follower's position.
	applyOpsToStream(t, st, ops[third:])
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	streamDir := filepath.Join(streamsRoot(ldir), encodeStreamDir("s"))
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, err := leader.shard("s")
		if err != nil {
			t.Fatal(err)
		}
		if s.dur.wal.OldestLSN() > uint64(third) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader WAL floor never passed %d (dir %s)", third, streamDir)
		}
		time.Sleep(5 * time.Millisecond)
	}
	leaderSnap, err := leader.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}

	follower2, err := Open(followerOptions(fdir, ts))
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	snap := waitConverged(t, follower2, "s", leaderSnap.AppliedLSN)
	if snap.Replication.Bootstraps < 1 {
		t.Fatalf("follower converged without re-bootstrapping across the gap: %+v", snap.Replication)
	}

	fst, err := follower2.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if want, got := streamCheckpointBytes(t, st), streamCheckpointBytes(t, fst); !bytes.Equal(want, got) {
		t.Fatalf("re-bootstrapped follower diverged from leader at LSN %d", leaderSnap.AppliedLSN)
	}
}

// TestFollowerRejectsWrites pins the read-only contract: every write
// path returns ErrReadOnly, reads keep working.
func TestFollowerRejectsWrites(t *testing.T) {
	cfg := durTestConfig(SNSVecPlus, 3)
	leader, err := Open(durTestOptions(t.TempDir(), FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	st, err := leader.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	applyOpsToStream(t, st, genDurOps(rng, cfg.Config.Dims, 90, 60))
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	leaderSnap, err := leader.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}

	ts := leaderServer(t, leader)
	follower, err := Open(followerOptions(t.TempDir(), ts))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitConverged(t, follower, "s", leaderSnap.AppliedLSN)

	ctx := context.Background()
	if _, err := follower.AddStream("other", cfg); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AddStream on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.RemoveStream("s"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RemoveStream on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.Push(ctx, "s", []int{0, 0}, 1, 1e9); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Push on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.Start(ctx, "s"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Start on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.AdvanceTo(ctx, "s", 1e9); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AdvanceTo on follower: %v, want ErrReadOnly", err)
	}
	fst, err := follower.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.PushBatch(ctx, []Event{{Coord: []int{0, 0}, Value: 1, Time: 1e9}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Stream.PushBatch on follower: %v, want ErrReadOnly", err)
	}
	// Reads and the durability barrier still work.
	if err := fst.Flush(ctx); err != nil {
		t.Fatalf("Flush on follower: %v", err)
	}
	if _, err := fst.Predict([]int{0, 0}, 0); err != nil {
		t.Fatalf("Predict on follower: %v", err)
	}
	m := follower.Metrics()
	if m.Follower == nil || !m.Follower.Synced || m.Follower.Leader != ts.URL {
		t.Fatalf("follower metrics = %+v", m.Follower)
	}
	if len(m.Streams) != 1 || m.Streams[0].Repl == nil {
		t.Fatalf("stream metrics missing replication view: %+v", m.Streams)
	}
}

// TestFollowerDropsDeletedStreams checks the reconciler retires streams
// the leader removed.
func TestFollowerDropsDeletedStreams(t *testing.T) {
	cfg := durTestConfig(SNSVecPlus, 5)
	leader, err := Open(durTestOptions(t.TempDir(), FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, n := range []string{"keep", "doomed"} {
		st, err := leader.AddStream(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		applyOpsToStream(t, st, genDurOps(rng, cfg.Config.Dims, 90, 30))
		if err := st.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	leaderSnap, err := leader.Snapshot("keep")
	if err != nil {
		t.Fatal(err)
	}

	ts := leaderServer(t, leader)
	follower, err := Open(followerOptions(t.TempDir(), ts))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitConverged(t, follower, "keep", leaderSnap.AppliedLSN)
	waitConverged(t, follower, "doomed", leaderSnap.AppliedLSN)

	if err := leader.RemoveStream("doomed"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := follower.Snapshot("doomed"); errors.Is(err, ErrStreamNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never dropped the deleted stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := follower.Snapshot("keep"); err != nil {
		t.Fatalf("surviving stream broken after reconcile: %v", err)
	}
}
