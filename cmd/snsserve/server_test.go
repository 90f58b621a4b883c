package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"slicenstitch"
)

func newTestServer(t *testing.T) (*slicenstitch.Engine, *httptest.Server) {
	t.Helper()
	e := slicenstitch.NewEngine()
	_, err := e.AddStream("test", slicenstitch.StreamConfig{
		Config:       slicenstitch.Config{Dims: []int{5, 4}, W: 3, Period: 10, Rank: 3},
		PublishEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(e, 1024))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return e, srv
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// errorCode decodes the uniform envelope and returns its machine code.
func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not the error envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("incomplete envelope: %+v", env)
	}
	return env.Error.Code
}

// fillWindow ingests a window's worth of events over HTTP on the given
// route prefix (always "/v1" today; kept as a parameter so tests read
// explicitly) and flushes.
func fillWindow(t *testing.T, srv *httptest.Server, prefix string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	events := make([]slicenstitch.Event, 0, 60)
	tm := int64(0)
	for i := 0; i < 60; i++ {
		tm += int64(rng.Intn(2))
		events = append(events, slicenstitch.Event{Coord: []int{rng.Intn(5), rng.Intn(4)}, Value: 1, Time: tm})
	}
	if resp := postJSON(t, srv.URL+prefix+"/streams/test/events", events); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+prefix+"/streams/test/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status = %d", resp.StatusCode)
	}
}

// TestServerLifecycle drives the whole /v1 HTTP surface: batch ingestion
// fills the window, start flips the stream online, and the read
// endpoints serve the published snapshot.
func TestServerLifecycle(t *testing.T) {
	_, srv := newTestServer(t)

	fillWindow(t, srv, "/v1")

	// Factors and predict are 503 until the warm start.
	if resp := getJSON(t, srv.URL+"/v1/streams/test/factors", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("factors before start = %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/predict?coord=1,1", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict before start = %d", resp.StatusCode)
	}

	if resp := postJSON(t, srv.URL+"/v1/streams/test/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start status = %d", resp.StatusCode)
	}

	// The status document is served at the bare resource path and its
	// older /status suffix, identically.
	for _, path := range []string{"/v1/streams/test", "/v1/streams/test/status"} {
		var status slicenstitch.Snapshot
		if resp := getJSON(t, srv.URL+path, &status); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if !status.Started || status.Ingested != 60 || status.NNZ == 0 {
			t.Fatalf("GET %s payload: %+v", path, status)
		}
	}

	var factors slicenstitch.Factors
	if resp := getJSON(t, srv.URL+"/v1/streams/test/factors", &factors); resp.StatusCode != http.StatusOK {
		t.Fatalf("factors = %d", resp.StatusCode)
	}
	if len(factors.Matrices) != 3 || len(factors.Lambda) != 3 {
		t.Fatalf("factors shape: %d matrices, %d lambda", len(factors.Matrices), len(factors.Lambda))
	}

	var pred struct {
		Stream    string   `json:"stream"`
		Predicted float64  `json:"predicted"`
		Observed  *float64 `json:"observed"`
		TimeIdx   int      `json:"timeIdx"`
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/predict?coord=1,2&t=0", &pred); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	if pred.Stream != "test" || pred.TimeIdx != 0 || pred.Observed == nil {
		t.Fatalf("predict payload: %+v", pred)
	}

	var list struct {
		Streams []slicenstitch.Snapshot `json:"streams"`
	}
	if resp := getJSON(t, srv.URL+"/v1/streams", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("streams = %d", resp.StatusCode)
	}
	if len(list.Streams) != 1 || list.Streams[0].Stream != "test" {
		t.Fatalf("streams payload: %+v", list)
	}

	// Dashboard renders.
	if resp := getJSON(t, srv.URL+"/", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard = %d", resp.StatusCode)
	}
}

// TestServerUnversionedGone pins the removal of the pre-v1 aliases: the
// deprecation window is over and unversioned paths 404.
func TestServerUnversionedGone(t *testing.T) {
	_, srv := newTestServer(t)
	for _, probe := range []struct{ method, path string }{
		{"GET", "/streams"},
		{"GET", "/streams/test/status"},
		{"GET", "/streams/test/factors"},
		{"GET", "/streams/test/predict?coord=1,1"},
		{"POST", "/streams/test/events"},
		{"POST", "/streams/test/start"},
		{"POST", "/streams/test/flush"},
		{"POST", "/streams/test/predict"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404 (alias should be gone)", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestServerCreateStream covers POST /v1/streams: runtime stream
// creation with a full config (including the admission rate limit),
// duplicate and validation errors through the envelope.
func TestServerCreateStream(t *testing.T) {
	_, srv := newTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/streams", map[string]interface{}{
		"name": "fresh",
		"config": map[string]interface{}{
			"Dims": []int{3, 3}, "W": 2, "Period": 5, "Rank": 2,
			"RateLimit": 100.0,
		},
	})
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var snap slicenstitch.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stream != "fresh" || snap.Admission == nil || snap.Admission.RateLimit != 100 {
		t.Fatalf("created snapshot: %+v", snap)
	}
	// The stream is immediately servable.
	if resp := getJSON(t, srv.URL+"/v1/streams/fresh", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status of created stream = %d", resp.StatusCode)
	}
	// Duplicate name → 409 stream_exists.
	if resp := postJSON(t, srv.URL+"/v1/streams", map[string]interface{}{
		"name":   "fresh",
		"config": map[string]interface{}{"Dims": []int{3, 3}, "Period": 5},
	}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "stream_exists" {
		t.Fatalf("duplicate create code = %q", code)
	}
	// Invalid config → 400 invalid_config.
	if resp := postJSON(t, srv.URL+"/v1/streams", map[string]interface{}{
		"name":   "bad",
		"config": map[string]interface{}{"Dims": []int{}, "Period": 0},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid create = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "invalid_config" {
		t.Fatalf("invalid create code = %q", code)
	}
	// Malformed body → 400 bad_request.
	mresp, err := http.Post(srv.URL+"/v1/streams", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed create = %d", mresp.StatusCode)
	}
}

// TestServerRateLimited pins the overload contract: pushes beyond the
// stream's admission rate are refused with 429 rate_limited and a
// Retry-After header, while the mailbox stays empty (fast rejection, not
// queue collapse).
func TestServerRateLimited(t *testing.T) {
	e := slicenstitch.NewEngine()
	_, err := e.AddStream("limited", slicenstitch.StreamConfig{
		Config:    slicenstitch.Config{Dims: []int{4, 4}, W: 2, Period: 10, Rank: 2},
		RateLimit: 1, RateBurst: 2, // 1 event/sec, bucket of 2
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(e, 1024))
	t.Cleanup(func() { srv.Close(); e.Close() })

	events := []slicenstitch.Event{
		{Coord: []int{0, 0}, Value: 1, Time: 0},
		{Coord: []int{1, 1}, Value: 1, Time: 0},
	}
	// The full bucket admits the first batch…
	if resp := postJSON(t, srv.URL+"/v1/streams/limited/events", events); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch = %d", resp.StatusCode)
	}
	// …and refuses the second instantly: 429, rate_limited, Retry-After.
	resp := postJSON(t, srv.URL+"/v1/streams/limited/events", events)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit batch = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds ≥ 1", ra)
	}
	if code := errorCode(t, resp); code != "rate_limited" {
		t.Fatalf("over-limit code = %q", code)
	}
	// The refusal happened before the mailbox: nothing queued, and the
	// admission counters saw one accepted and one limited batch.
	var snap slicenstitch.Snapshot
	if resp := getJSON(t, srv.URL+"/v1/streams/limited", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if snap.Admission == nil {
		t.Fatal("no admission report on a rate-limited stream")
	}
	if snap.Admission.AcceptedEvents != 2 || snap.Admission.LimitedEvents != 2 || snap.Admission.LimitedBatches != 1 {
		t.Fatalf("admission counters: %+v", snap.Admission)
	}
}

// TestServerBatchPredict covers the new POST /v1/streams/{name}/predict
// endpoint: many coordinates per request against one published model
// version, with per-query errors that don't fail the batch.
func TestServerBatchPredict(t *testing.T) {
	_, srv := newTestServer(t)
	fillWindow(t, srv, "/v1")

	// Before the warm start the whole batch is 503/not_started.
	if resp := postJSON(t, srv.URL+"/v1/streams/test/predict",
		map[string]interface{}{"queries": []map[string]interface{}{{"coord": []int{1, 1}}}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch predict before start = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "not_started" {
		t.Fatalf("batch predict before start code = %q", code)
	}

	if resp := postJSON(t, srv.URL+"/v1/streams/test/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start = %d", resp.StatusCode)
	}

	t0 := 0
	resp := postJSON(t, srv.URL+"/v1/streams/test/predict", map[string]interface{}{
		"queries": []predictQuery{
			{Coord: []int{1, 2}, T: &t0},
			{Coord: []int{3, 3}}, // t omitted → newest unit
			{Coord: []int{99, 0}},
			{Coord: []int{1}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch predict = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Stream  string          `json:"stream"`
		Results []predictResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Stream != "test" || len(out.Results) != 4 {
		t.Fatalf("batch payload: %+v", out)
	}
	if out.Results[0].Predicted == nil || out.Results[0].TimeIdx != 0 {
		t.Fatalf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Predicted == nil || out.Results[1].TimeIdx != 2 { // W-1
		t.Fatalf("result 1: %+v", out.Results[1])
	}
	for i := 2; i < 4; i++ {
		r := out.Results[i]
		if r.Predicted != nil || r.Error == nil || r.Error.Code != "bad_coord" {
			t.Fatalf("result %d: %+v", i, r)
		}
	}

	// Malformed and empty bodies are envelope'd 400s.
	for _, body := range []interface{}{
		map[string]interface{}{"queries": []predictQuery{}},
		map[string]interface{}{},
	} {
		if resp := postJSON(t, srv.URL+"/v1/streams/test/predict", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty queries = %d", resp.StatusCode)
		}
	}
}

// TestServerErrorEnvelope pins the taxonomy → HTTP mapping: every error
// response is the uniform envelope with a stable machine-readable code.
func TestServerErrorEnvelope(t *testing.T) {
	e, srv := newTestServer(t)

	if resp := getJSON(t, srv.URL+"/v1/streams/nope/status", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "stream_not_found" {
		t.Fatalf("unknown stream code = %q", code)
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/factors", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("factors before start = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "not_started" {
		t.Fatalf("factors before start code = %q", code)
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/predict?coord=zzz", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad coord = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "bad_request" {
		t.Fatalf("bad coord code = %q", code)
	}
	// Double-start maps ErrAlreadyStarted onto 409/already_started.
	fillWindow(t, srv, "/v1")
	if resp := postJSON(t, srv.URL+"/v1/streams/test/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/streams/test/start", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second start = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "already_started" {
		t.Fatalf("second start code = %q", code)
	}
	// A removed stream is 404 through the registry.
	if err := e.RemoveStream("test"); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/status", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed stream = %d", resp.StatusCode)
	} else if code := errorCode(t, resp); code != "stream_not_found" {
		t.Fatalf("removed stream code = %q", code)
	}
}

func TestServerErrorMapping(t *testing.T) {
	_, srv := newTestServer(t)

	if resp := getJSON(t, srv.URL+"/v1/streams/nope/status", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream = %d", resp.StatusCode)
	}
	// Even an empty batch checks the stream exists.
	if resp := postJSON(t, srv.URL+"/v1/streams/nope/events", []slicenstitch.Event{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty batch to unknown stream = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/streams/nope/events", []slicenstitch.Event{{Coord: []int{0, 0}, Value: 1}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events to unknown stream = %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/v1/streams/test/events", "application/json", bytes.NewBufferString("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload = %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/predict?coord=zzz", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad coord = %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/test/predict?coord=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short coord = %d", resp.StatusCode)
	}
}

// mapError must track the package taxonomy exactly — a new sentinel that
// falls through to "internal" is a bug.
func TestMapError(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{slicenstitch.ErrStreamNotFound, http.StatusNotFound, "stream_not_found"},
		{slicenstitch.ErrStreamStopped, http.StatusGone, "stream_stopped"},
		{slicenstitch.ErrNotStarted, http.StatusServiceUnavailable, "not_started"},
		{slicenstitch.ErrAlreadyStarted, http.StatusConflict, "already_started"},
		{slicenstitch.ErrBackpressure, http.StatusTooManyRequests, "backpressure"},
		{slicenstitch.ErrRateLimited, http.StatusTooManyRequests, "rate_limited"},
		{&slicenstitch.RateLimitError{Stream: "s", RetryAfter: time.Second}, http.StatusTooManyRequests, "rate_limited"},
		{slicenstitch.ErrStaleTimestamp, http.StatusConflict, "stale_timestamp"},
		{slicenstitch.ErrBadValue, http.StatusBadRequest, "bad_value"},
		{&slicenstitch.RejectError{Index: 2, Err: fmt.Errorf("%w: NaN", slicenstitch.ErrBadValue)}, http.StatusBadRequest, "bad_value"},
		{slicenstitch.ErrObservedUnavailable, http.StatusServiceUnavailable, "observed_unavailable"},
		{slicenstitch.ErrEngineClosed, http.StatusServiceUnavailable, "engine_closed"},
		{slicenstitch.ErrDurability, http.StatusInternalServerError, "durability_failure"},
		{slicenstitch.ErrConfig, http.StatusBadRequest, "invalid_config"},
		{slicenstitch.ErrStreamExists, http.StatusConflict, "stream_exists"},
		{slicenstitch.ErrCorruptCheckpoint, http.StatusInternalServerError, "corrupt_checkpoint"},
		{slicenstitch.ErrCorruptWAL, http.StatusInternalServerError, "corrupt_wal"},
		{slicenstitch.ErrReadOnly, http.StatusForbidden, "read_only"},
		{slicenstitch.ErrWALGap, http.StatusGone, "wal_gap"},
		{&slicenstitch.CoordError{Mode: 0, Got: 9, Limit: 4}, http.StatusBadRequest, "bad_coord"},
		{&slicenstitch.RejectError{Index: 1, Err: &slicenstitch.CoordError{}}, http.StatusBadRequest, "bad_coord"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, code := mapError(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("mapError(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
		}
	}
}

func TestParseStreams(t *testing.T) {
	specs, err := parseStreams("NewYorkTaxi, bikes=DivvyBikes")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].name != "NewYorkTaxi" || specs[1].name != "bikes" {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[1].preset.Name != "DivvyBikes" {
		t.Fatalf("preset = %q", specs[1].preset.Name)
	}
	if _, err := parseStreams("a=NewYorkTaxi,a=DivvyBikes"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := parseStreams("NotAPreset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// Empty is a valid zero-stream boot (streams arrive via POST /v1/streams).
	if specs, err := parseStreams(""); err != nil || len(specs) != 0 {
		t.Fatalf("parseStreams(\"\") = %v, %v; want empty, nil", specs, err)
	}
}

func TestParseBackpressure(t *testing.T) {
	for s, want := range map[string]slicenstitch.Backpressure{
		"block":       slicenstitch.BackpressureBlock,
		"drop-oldest": slicenstitch.BackpressureDropOldest,
		"error":       slicenstitch.BackpressureError,
	} {
		got, err := parseBackpressure(s)
		if err != nil || got != want {
			t.Fatalf("parseBackpressure(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseBackpressure("nope"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestSaveCheckpointRoundTrip writes an engine checkpoint through the
// server's atomic-save helper and restores it.
func TestSaveCheckpointRoundTrip(t *testing.T) {
	e, _ := newTestServer(t)
	path := t.TempDir() + "/sns.ckpt"
	if err := saveCheckpoint(e, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := slicenstitch.RestoreEngine(f)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if streams := got.Streams(); len(streams) != 1 || streams[0] != "test" {
		t.Fatalf("restored streams = %v", streams)
	}
}
