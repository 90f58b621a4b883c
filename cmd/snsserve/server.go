package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"slicenstitch"
	"slicenstitch/internal/repl"
)

// observedWait bounds how long the predict endpoint waits for the live
// window reading before serving "observed": null. Well under the server's
// write timeout, so a backlogged shard degrades the response instead of
// hanging it.
const observedWait = 250 * time.Millisecond

// maxPredictQueries caps one batch-predict request.
const maxPredictQueries = 4096

// newMux builds the versioned HTTP API over a multi-stream engine. All
// read endpoints serve the shard's published snapshot, so they are
// wait-free with respect to ingestion; POST /v1/streams/{name}/events
// feeds the shard's mailbox and returns before the batch is applied.
//
//	GET  /                             plain-text dashboard
//	GET  /healthz                      liveness: 200 while the process serves
//	GET  /readyz                       readiness: follower lag/sync gated (see below)
//	GET  /v1/streams                   all stream snapshots (sorted by name)
//	POST /v1/streams                   create a stream: {"name":…, "config":{…}}
//	GET  /v1/streams/{name}            one stream's snapshot (same shape as a list entry)
//	GET  /v1/streams/{name}/status     alias of GET /v1/streams/{name}
//	GET  /v1/streams/{name}/factors    factor matrices + λ
//	GET  /v1/streams/{name}/predict    ?coord=3,5&t=9 → model vs observed value
//	GET  /v1/streams/{name}/wal        replication: tail WAL records from ?from=LSN
//	GET  /v1/streams/{name}/checkpoint replication: bootstrap blob (config + newest checkpoint)
//	POST /v1/streams/{name}/predict    JSON {"queries":[{"coord":[i,j],"t":k},…]} → batch predictions
//	POST /v1/streams/{name}/events     JSON [{"coord":[i,j],"value":v,"time":t},…]
//	POST /v1/streams/{name}/start      warm-start (window must be full)
//	POST /v1/streams/{name}/flush      wait until queued batches are applied
//
// Readiness: on a leader, /readyz is ready as soon as the engine is open
// (Open returns only after recovery). On a follower it reports 503 until
// the stream set has synced from the leader at least once AND every
// stream is in the tailing state with replication lag ≤ readyMaxLag
// LSNs — so a load balancer only routes reads to replicas that are
// caught up.
//
// Every non-2xx response carries the uniform JSON error envelope
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// with codes mapped one-to-one from the package error taxonomy (see
// mapError). The API is /v1-only: the pre-v1 unversioned aliases served
// their deprecation window (Deprecation + successor-version Link headers)
// and are gone; unversioned paths now 404.
//
// Predict semantics: "predicted" always comes from the published snapshot
// (wait-free). "observed" is ground truth from the live window and is
// best-effort: the reading travels through the shard mailbox, so when the
// writer is backlogged the request's context is given observedWait to
// produce it and the response degrades to "observed": null with
// "observedTimedOut": true instead of stalling past the write timeout.
func newMux(e *slicenstitch.Engine, readyMaxLag uint64) *http.ServeMux {
	mux := http.NewServeMux()
	hs := &httpStats{}
	// route registers a handler under /v1 through the metrics middleware,
	// labelled by the route pattern (never the raw URL) so label
	// cardinality stays bounded.
	route := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+path, hs.middleware(hs.register(method, "/v1"+path), h))
	}

	// The scrape endpoint instruments itself too: each scrape's series
	// reflect the previous scrapes, which is exactly what a counter is.
	mux.HandleFunc("GET /metrics",
		hs.middleware(hs.register("GET", "/metrics"), metricsHandler(e, hs, processStart)))

	// Liveness and readiness. healthz answers as long as the process
	// serves; readyz gates on recovery (implicit: the mux exists only
	// after Open returned) and, on a follower, on sync + lag.
	mux.HandleFunc("GET /healthz", hs.middleware(hs.register("GET", "/healthz"),
		func(rw http.ResponseWriter, _ *http.Request) {
			writeJSON(rw, map[string]string{"status": "ok"})
		}))
	mux.HandleFunc("GET /readyz", hs.middleware(hs.register("GET", "/readyz"),
		readyHandler(e, readyMaxLag)))

	// Replication endpoints: the leader side of WAL shipping. Bodies are
	// CRC-framed record streams, positions ride in Sns-* headers, and
	// errors use the same envelope + taxonomy as the rest of the API
	// (ErrWALGap → 410 "wal_gap" is what tells a follower to re-bootstrap).
	rsrv := &repl.Server{
		Tail: func(ctx context.Context, stream string, from uint64, maxBytes int, wait time.Duration) (repl.Chunk, error) {
			c, err := e.TailWAL(ctx, stream, from, maxBytes, wait)
			if err != nil {
				return repl.Chunk{}, err
			}
			return repl.Chunk{Records: c.Records, Next: c.Next, FlushedLSN: c.FlushedLSN, OldestLSN: c.OldestLSN, More: c.More}, nil
		},
		Bootstrap: e.WriteBootstrap,
		MapError:  mapError,
	}
	mux.HandleFunc("GET /v1/streams/{name}/wal",
		hs.middleware(hs.register("GET", "/v1/streams/{name}/wal"), rsrv.HandleTail))
	mux.HandleFunc("GET /v1/streams/{name}/checkpoint",
		hs.middleware(hs.register("GET", "/v1/streams/{name}/checkpoint"), rsrv.HandleBootstrap))

	route("GET", "/streams", func(rw http.ResponseWriter, _ *http.Request) {
		names := e.Streams() // sorted: the listing is deterministic
		snaps := make([]slicenstitch.Snapshot, 0, len(names))
		for _, n := range names {
			if snap, err := e.Snapshot(n); err == nil {
				snaps = append(snaps, snap)
			}
		}
		writeJSON(rw, map[string]interface{}{"streams": snaps})
	})

	// POST /v1/streams creates a stream at runtime — what a load generator
	// (snsload -create) or an operator uses to define a stream shaped
	// like the trace about to be replayed, instead of restarting the
	// server with a new -streams flag. The config carries the same fields
	// as the boot-time stream spec, including the admission RateLimit.
	mux.HandleFunc("POST /v1/streams", hs.middleware(hs.register("POST", "/v1/streams"),
		func(rw http.ResponseWriter, req *http.Request) {
			var body struct {
				Name   string                    `json:"name"`
				Config slicenstitch.StreamConfig `json:"config"`
			}
			if err := json.NewDecoder(http.MaxBytesReader(rw, req.Body, 1<<20)).Decode(&body); err != nil {
				writeAPIError(rw, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad stream payload: %v", err))
				return
			}
			st, err := e.AddStream(body.Name, body.Config)
			if err != nil {
				writeError(rw, err)
				return
			}
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusCreated)
			json.NewEncoder(rw).Encode(st.Snapshot())
		}))

	// The single-stream status document, served under both the bare
	// resource path and the older /status suffix (same handler, separate
	// metric labels).
	statusHandler := func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, st.Snapshot())
	}
	route("GET", "/streams/{name}", statusHandler)
	route("GET", "/streams/{name}/status", statusHandler)

	route("GET", "/streams/{name}/factors", func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		snap := st.Snapshot()
		if snap.Factors == nil {
			writeError(rw, slicenstitch.ErrNotStarted)
			return
		}
		writeJSON(rw, snap.Factors)
	})

	route("GET", "/streams/{name}/predict", func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		snap := st.Snapshot()
		coord, timeIdx, err := parsePredictQuery(req, len(snap.Dims), snap.W)
		if err != nil {
			writeAPIError(rw, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		pred, err := st.Predict(coord, timeIdx)
		if err != nil {
			writeError(rw, err)
			return
		}
		// Ground truth from the live window, best-effort: the bounded
		// context keeps a backlogged writer from hanging the endpoint.
		resp := map[string]interface{}{
			"stream": st.Name(), "coord": coord, "timeIdx": timeIdx,
			"predicted": pred, "observed": nil,
		}
		ctx, cancel := context.WithTimeout(req.Context(), observedWait)
		obs, err := st.Observed(ctx, coord, timeIdx)
		cancel()
		switch {
		case err == nil:
			resp["observed"] = obs
		case errors.Is(err, slicenstitch.ErrObservedUnavailable),
			errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, context.Canceled):
			// Shed, evicted, or deadline-expired: the observation is
			// unavailable, not wrong — degrade instead of failing.
			resp["observedTimedOut"] = true
		}
		writeJSON(rw, resp)
	})

	route("POST", "/streams/{name}/predict", func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		var body struct {
			Queries []predictQuery `json:"queries"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(rw, req.Body, 8<<20)).Decode(&body); err != nil {
			writeAPIError(rw, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad predict payload: %v", err))
			return
		}
		if len(body.Queries) == 0 {
			writeAPIError(rw, http.StatusBadRequest, "bad_request", "queries must be non-empty")
			return
		}
		if len(body.Queries) > maxPredictQueries {
			writeAPIError(rw, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("%d queries exceeds the limit of %d", len(body.Queries), maxPredictQueries))
			return
		}
		snap := st.Snapshot()
		if snap.Factors == nil {
			writeError(rw, slicenstitch.ErrNotStarted)
			return
		}
		// One snapshot serves the whole batch (Snapshot.Predict, not
		// Stream.Predict): every result is evaluated against the same
		// published model version even if the writer publishes mid-loop.
		results := make([]predictResult, len(body.Queries))
		for i, q := range body.Queries {
			timeIdx := snap.W - 1
			if q.T != nil {
				timeIdx = *q.T
			}
			res := predictResult{Coord: q.Coord, TimeIdx: timeIdx}
			if v, err := snap.Predict(q.Coord, timeIdx); err != nil {
				_, code := mapError(err)
				res.Error = &apiError{Code: code, Message: err.Error()}
			} else {
				res.Predicted = &v
			}
			results[i] = res
		}
		writeJSON(rw, map[string]interface{}{"stream": st.Name(), "results": results})
	})

	route("POST", "/streams/{name}/events", func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		var events []slicenstitch.Event
		if err := json.NewDecoder(http.MaxBytesReader(rw, req.Body, 8<<20)).Decode(&events); err != nil {
			writeAPIError(rw, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad events payload: %v", err))
			return
		}
		if err := st.PushBatch(req.Context(), events); err != nil {
			writeError(rw, err)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(map[string]interface{}{"stream": st.Name(), "queued": len(events)})
	})

	route("POST", "/streams/{name}/start", func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		if err := st.Start(req.Context()); err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, map[string]interface{}{"stream": st.Name(), "started": true})
	})

	route("POST", "/streams/{name}/flush", func(rw http.ResponseWriter, req *http.Request) {
		st, err := e.Stream(req.PathValue("name"))
		if err != nil {
			writeError(rw, err)
			return
		}
		if err := st.Flush(req.Context()); err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, map[string]interface{}{"stream": st.Name(), "flushed": true})
	})

	mux.HandleFunc("GET /{$}", hs.middleware(hs.register("GET", "/"), func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(rw, "slicenstitch multi-stream monitor — %d streams\n\n", len(e.Streams()))
		for _, n := range e.Streams() {
			snap, err := e.Snapshot(n)
			if err != nil {
				continue
			}
			fmt.Fprintf(rw, "%-16s time %-8d ingested %-8d nnz %-6d fitness %.4f  %s  queue %d/%d\n",
				n, snap.Now, snap.Ingested, snap.NNZ, snap.Fitness, snap.Algorithm,
				snap.QueueDepth, snap.QueueCap)
		}
		fmt.Fprintf(rw, "\nendpoints: /v1/streams /v1/streams/{name}/status|factors|predict  POST /v1/streams/{name}/events|predict  /metrics\n")
	}))
	return mux
}

// readyHandler serves GET /readyz. A leader is ready as soon as it
// serves (Open returns only after recovery). A follower is ready once
// its stream set has synced from the leader — every stream the last
// reconcile listed exists locally, so none is still bootstrapping — and
// every stream is tailing with lag ≤ maxLag LSNs; until then it answers
// 503 so load balancers keep reads off a stale replica.
func readyHandler(e *slicenstitch.Engine, maxLag uint64) http.HandlerFunc {
	return func(rw http.ResponseWriter, _ *http.Request) {
		m := e.Metrics()
		notReady := func(reason string) {
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(rw).Encode(map[string]interface{}{"ready": false, "reason": reason})
		}
		if m.Follower != nil {
			if !m.Follower.Synced {
				notReady("stream set not yet synced from leader (or a listed stream is still bootstrapping)")
				return
			}
			for _, sm := range m.Streams {
				if sm.Repl == nil || sm.Repl.State != "tailing" {
					notReady(fmt.Sprintf("stream %q is bootstrapping", sm.Name))
					return
				}
				if sm.Repl.LagLSNs > maxLag {
					notReady(fmt.Sprintf("stream %q lags %d LSNs (max %d)", sm.Name, sm.Repl.LagLSNs, maxLag))
					return
				}
			}
		}
		writeJSON(rw, map[string]interface{}{"ready": true})
	}
}

// predictQuery is one entry of a batch-predict request. T defaults to the
// newest tensor unit (W−1) when omitted.
type predictQuery struct {
	Coord []int `json:"coord"`
	T     *int  `json:"t,omitempty"`
}

// predictResult is one entry of a batch-predict response: either a
// predicted value or a per-query error, never both.
type predictResult struct {
	Coord     []int     `json:"coord"`
	TimeIdx   int       `json:"timeIdx"`
	Predicted *float64  `json:"predicted,omitempty"`
	Error     *apiError `json:"error,omitempty"`
}

// apiError is the body of the uniform error envelope:
// {"error":{"code":..., "message":...}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeAPIError writes the uniform envelope with an explicit status/code.
func writeAPIError(rw http.ResponseWriter, status int, code, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(map[string]*apiError{"error": {Code: code, Message: msg}})
}

// writeError maps a package error onto the envelope via the taxonomy. A
// rate-limited rejection additionally advertises the token bucket's wait
// as a Retry-After header (whole seconds, rounded up so a compliant
// client never retries early).
func writeError(rw http.ResponseWriter, err error) {
	status, code := mapError(err)
	var rl *slicenstitch.RateLimitError
	if errors.As(err, &rl) {
		secs := int(math.Ceil(rl.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		rw.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeAPIError(rw, status, code, err.Error())
}

// mapError translates the package error taxonomy into HTTP status codes
// and stable machine-readable error codes. Every sentinel and structured
// type in slicenstitch's errors.go has exactly one row here.
func mapError(err error) (status int, code string) {
	var coordErr *slicenstitch.CoordError
	switch {
	case errors.Is(err, slicenstitch.ErrStreamNotFound):
		return http.StatusNotFound, "stream_not_found"
	case errors.Is(err, slicenstitch.ErrStreamStopped):
		return http.StatusGone, "stream_stopped"
	case errors.Is(err, slicenstitch.ErrNotStarted):
		return http.StatusServiceUnavailable, "not_started"
	case errors.Is(err, slicenstitch.ErrAlreadyStarted):
		return http.StatusConflict, "already_started"
	case errors.Is(err, slicenstitch.ErrBackpressure):
		return http.StatusTooManyRequests, "backpressure"
	case errors.Is(err, slicenstitch.ErrRateLimited):
		return http.StatusTooManyRequests, "rate_limited"
	case errors.Is(err, slicenstitch.ErrStaleTimestamp):
		return http.StatusConflict, "stale_timestamp"
	case errors.Is(err, slicenstitch.ErrBadValue):
		return http.StatusBadRequest, "bad_value"
	case errors.Is(err, slicenstitch.ErrObservedUnavailable):
		return http.StatusServiceUnavailable, "observed_unavailable"
	case errors.Is(err, slicenstitch.ErrEngineClosed):
		return http.StatusServiceUnavailable, "engine_closed"
	case errors.Is(err, slicenstitch.ErrDurability):
		return http.StatusInternalServerError, "durability_failure"
	case errors.Is(err, slicenstitch.ErrConfig):
		return http.StatusBadRequest, "invalid_config"
	case errors.Is(err, slicenstitch.ErrStreamExists):
		return http.StatusConflict, "stream_exists"
	case errors.Is(err, slicenstitch.ErrCorruptCheckpoint):
		return http.StatusInternalServerError, "corrupt_checkpoint"
	case errors.Is(err, slicenstitch.ErrCorruptWAL):
		return http.StatusInternalServerError, "corrupt_wal"
	case errors.Is(err, slicenstitch.ErrReadOnly):
		return http.StatusForbidden, "read_only"
	case errors.Is(err, slicenstitch.ErrWALGap):
		return http.StatusGone, "wal_gap"
	case errors.As(err, &coordErr):
		return http.StatusBadRequest, "bad_coord"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return 499, "canceled" // nginx's client-closed-request; no stdlib constant
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(rw http.ResponseWriter, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		writeAPIError(rw, http.StatusInternalServerError, "internal", err.Error())
	}
}

// parsePredictQuery extracts ?coord=i,j&t=k (t defaults to the newest
// unit).
func parsePredictQuery(req *http.Request, arity, w int) (coord []int, timeIdx int, err error) {
	raw := req.URL.Query().Get("coord")
	parts := strings.Split(raw, ",")
	if raw == "" || len(parts) != arity {
		return nil, 0, fmt.Errorf("coord must have %d comma-separated indices", arity)
	}
	for _, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, 0, fmt.Errorf("bad coord %q", s)
		}
		coord = append(coord, v)
	}
	timeIdx = w - 1
	if ts := req.URL.Query().Get("t"); ts != "" {
		timeIdx, err = strconv.Atoi(ts)
		if err != nil {
			return nil, 0, fmt.Errorf("bad t %q", ts)
		}
	}
	return coord, timeIdx, nil
}
