package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"slicenstitch"
)

// newLeaderServer opens a durable engine with one stream and serves it
// through the full snsserve mux.
func newLeaderServer(t *testing.T) (*slicenstitch.Engine, *slicenstitch.Stream, *httptest.Server) {
	t.Helper()
	e, err := slicenstitch.Open(slicenstitch.Options{Durability: &slicenstitch.DurabilityOptions{
		Dir:             t.TempDir(),
		CheckpointEvery: 32,
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.AddStream("test", slicenstitch.StreamConfig{
		Config:       slicenstitch.Config{Dims: []int{5, 4}, W: 3, Period: 10, Rank: 3},
		PublishEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(e, 1024))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return e, st, srv
}

// openFollower opens a read replica of the given leader URL over dir and
// serves it through the snsserve mux. Retry knobs are tightened so the
// test converges quickly.
func openFollower(t *testing.T, dir, leaderURL string) (*slicenstitch.Engine, *httptest.Server) {
	t.Helper()
	e, err := slicenstitch.Open(slicenstitch.Options{
		Durability: &slicenstitch.DurabilityOptions{Dir: dir},
		Follower: &slicenstitch.FollowerOptions{
			Leader:      leaderURL,
			SyncEvery:   20 * time.Millisecond,
			PollTimeout: 200 * time.Millisecond,
			RetryMin:    5 * time.Millisecond,
			RetryMax:    50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(e, 1024))
	return e, srv
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, srv *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready (last err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthEndpoints pins the liveness/readiness contract on a leader:
// both answer 200 as soon as the mux serves, since Open returns only
// after recovery.
func TestHealthEndpoints(t *testing.T) {
	_, _, srv := newLeaderServer(t)
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}
	var ready struct {
		Ready bool `json:"ready"`
	}
	if resp := getJSON(t, srv.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz = %d %+v", resp.StatusCode, ready)
	}
}

// TestFollowerNotReadyWhileBootstrapping is the regression test for a
// follower reporting ready too early: with the leader's bootstrap endpoint
// held, the stream set has synced but the stream is not yet in the
// follower's engine, so /readyz must answer 503 — and once it answers 200,
// the stream must be listed.
func TestFollowerNotReadyWhileBootstrapping(t *testing.T) {
	leader, _, lsrv := newLeaderServer(t)
	fillWindow(t, lsrv, "/v1")
	requested, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	mux := newMux(leader, 1024)
	gated := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			once.Do(func() { close(requested) })
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		mux.ServeHTTP(rw, r)
	}))
	defer gated.Close()

	follower, fsrv := openFollower(t, t.TempDir(), gated.URL)
	defer func() {
		fsrv.Close()
		follower.Close()
	}()
	select {
	case <-requested:
	case <-time.After(20 * time.Second):
		t.Fatal("follower never requested a bootstrap")
	}
	// Several reconciles (SyncEvery is 20ms) complete while the bootstrap
	// is held; none may flip readiness.
	for i := 0; i < 20; i++ {
		resp, err := http.Get(fsrv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d while the stream is still bootstrapping, want 503", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m := follower.Metrics(); m.Follower == nil || m.Follower.Synced {
		t.Fatalf("follower view %+v: synced before its stream exists", m.Follower)
	}
	close(release)
	waitReady(t, fsrv)
	var fstat slicenstitch.Snapshot
	if resp := getJSON(t, fsrv.URL+"/v1/streams/test/status", &fstat); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower status = %d once ready", resp.StatusCode)
	}
}

// TestLeaderFollowerConvergence is the replication smoke test that runs
// under -race in CI: a follower bootstraps from a live snsserve leader
// over real HTTP, reaches readiness, is killed mid-stream, and resumes
// from its local copy to full convergence. Along the way it pins the
// operator surface: status LSN fields, the read_only write rejection,
// and the sns_replication_* exposition families.
func TestLeaderFollowerConvergence(t *testing.T) {
	leader, st, lsrv := newLeaderServer(t)

	fillWindow(t, lsrv, "/v1")

	var lstat slicenstitch.Snapshot
	if resp := getJSON(t, lsrv.URL+"/v1/streams/test/status", &lstat); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader status = %d", resp.StatusCode)
	}
	// Satellite: the durable position is visible on the wire.
	if lstat.AppliedLSN == 0 || lstat.WALNextLSN != lstat.AppliedLSN || lstat.WALOldestLSN > lstat.AppliedLSN {
		t.Fatalf("leader status LSNs: applied=%d wal=[%d,%d)", lstat.AppliedLSN, lstat.WALOldestLSN, lstat.WALNextLSN)
	}

	fdir := t.TempDir()
	follower, fsrv := openFollower(t, fdir, lsrv.URL)
	waitReady(t, fsrv)

	var fstat slicenstitch.Snapshot
	if resp := getJSON(t, fsrv.URL+"/v1/streams/test/status", &fstat); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower status = %d", resp.StatusCode)
	}
	if fstat.Replication == nil || fstat.Replication.State != "tailing" {
		t.Fatalf("follower replication view: %+v", fstat.Replication)
	}
	if fstat.AppliedLSN != lstat.AppliedLSN {
		t.Fatalf("follower applied %d, leader %d", fstat.AppliedLSN, lstat.AppliedLSN)
	}

	// Writes on the replica are refused with the typed envelope; reads
	// keep serving.
	if resp := postJSON(t, fsrv.URL+"/v1/streams/test/events",
		[]slicenstitch.Event{{Coord: []int{0, 0}, Value: 1, Time: 999}}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica ingest = %d, want 403", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "read_only" {
		t.Fatalf("replica ingest code = %q", code)
	}
	if resp := postJSON(t, fsrv.URL+"/v1/streams/test/start", nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica start = %d, want 403", resp.StatusCode)
	}

	// The replication families are present and the whole scrape still
	// parses as strict 0.0.4 exposition.
	families := parseExposition(t, scrape(t, fsrv.URL))
	for _, name := range []string{
		"sns_replication_synced", "sns_replication_lag_lsns", "sns_replication_lag_seconds",
		"sns_replication_applied_lsn", "sns_replication_records_applied_total",
		"sns_replication_chunks_total", "sns_replication_bootstraps_total",
		"sns_replication_tail_reconnects_total", "sns_replication_bootstrap_duration_seconds",
	} {
		if families[name] == nil {
			t.Errorf("family %s missing from follower scrape", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for name, f := range families {
		if f.typ == "histogram" {
			checkHistogram(t, name, f)
		}
	}
	for _, s := range families["sns_replication_synced"].samples {
		if s.value != 1 {
			t.Errorf("sns_replication_synced = %g, want 1", s.value)
		}
	}
	for _, s := range families["sns_replication_applied_lsn"].samples {
		if s.labels["stream"] == "test" && s.value != float64(lstat.AppliedLSN) {
			t.Errorf("sns_replication_applied_lsn = %g, want %d", s.value, lstat.AppliedLSN)
		}
	}

	// Kill the replica mid-stream: stop it, move the leader forward,
	// reopen over the same directory, and require convergence again.
	fsrv.Close()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for tm := int64(100); tm < 160; tm++ {
		if err := st.Push(ctx, []int{int(tm) % 5, int(tm) % 4}, 1, tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	lstat2, err := leader.Snapshot("test")
	if err != nil {
		t.Fatal(err)
	}
	if lstat2.AppliedLSN <= lstat.AppliedLSN {
		t.Fatalf("leader did not advance: %d -> %d", lstat.AppliedLSN, lstat2.AppliedLSN)
	}

	follower2, fsrv2 := openFollower(t, fdir, lsrv.URL)
	defer func() { fsrv2.Close(); follower2.Close() }()
	waitReady(t, fsrv2)
	deadline := time.Now().Add(20 * time.Second)
	for {
		var snap slicenstitch.Snapshot
		if resp := getJSON(t, fsrv2.URL+"/v1/streams/test/status", &snap); resp.StatusCode == http.StatusOK &&
			snap.AppliedLSN == lstat2.AppliedLSN && snap.Replication != nil && snap.Replication.LagLSNs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted follower never converged to %d", lstat2.AppliedLSN)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both sides now answer the same prediction from the same model.
	var lpred, fpred struct {
		Predicted float64 `json:"predicted"`
	}
	if resp := postJSON(t, lsrv.URL+"/v1/streams/test/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader start = %d", resp.StatusCode)
	}
	// Give the replica a beat to replay the start record, then compare.
	for {
		resp := getJSON(t, fsrv2.URL+"/v1/streams/test/predict?coord=1,2&t=0", &fpred)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica predict never succeeded (last %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := getJSON(t, lsrv.URL+"/v1/streams/test/predict?coord=1,2&t=0", &lpred); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader predict = %d", resp.StatusCode)
	}
	if lpred.Predicted != fpred.Predicted {
		t.Fatalf("replica predicts %v, leader %v", fpred.Predicted, lpred.Predicted)
	}
}

// TestReadyzFollowerGating asserts a follower pointed at an unreachable
// leader reports not-ready with a reason instead of 200.
func TestReadyzFollowerGating(t *testing.T) {
	e, err := slicenstitch.Open(slicenstitch.Options{
		Durability: &slicenstitch.DurabilityOptions{Dir: t.TempDir()},
		Follower: &slicenstitch.FollowerOptions{
			Leader:    "http://127.0.0.1:1", // nothing listens here
			SyncEvery: 10 * time.Millisecond,
			RetryMin:  5 * time.Millisecond,
			RetryMax:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(e, 1024))
	t.Cleanup(func() { srv.Close(); e.Close() })

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on orphaned follower = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Ready || body.Reason == "" {
		t.Fatalf("readyz payload: %+v", body)
	}
}
