package slicenstitch

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestErrorTaxonomyTracker asserts every Tracker failure is matchable
// through errors.Is/As — the table each client layer (Engine, Stream,
// HTTP envelope) builds on.
func TestErrorTaxonomyTracker(t *testing.T) {
	tr, err := New(validConfig()) // Dims {5,4}, W 3
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Push([]int{0, 0}, 1, 50); err != nil {
		t.Fatal(err)
	}

	var coordErr *CoordError
	cases := []struct {
		name string
		err  error
		is   error // sentinel the error must match, nil to skip
		as   bool  // must match *CoordError via errors.As
	}{
		{"arity", tr.Push([]int{0}, 1, 50), nil, true},
		{"out of range", tr.Push([]int{99, 0}, 1, 50), nil, true},
		{"negative index", tr.Push([]int{-1, 0}, 1, 50), nil, true},
		{"stale push", tr.Push([]int{0, 0}, 1, 0), ErrStaleTimestamp, false},
		{"stale advance", tr.AdvanceTo(0), ErrStaleTimestamp, false},
		{"predict before start", firstErr(tr.Predict([]int{0, 0}, 0)), ErrNotStarted, false},
		{"bad predict time idx", firstErrAfterStart(t, tr), nil, true},
		{"start twice", tr.Start(), ErrAlreadyStarted, false},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if tc.is != nil && !errors.Is(tc.err, tc.is) {
			t.Errorf("%s: %v does not match %v", tc.name, tc.err, tc.is)
		}
		if tc.as && !errors.As(tc.err, &coordErr) {
			t.Errorf("%s: %v does not match *CoordError", tc.name, tc.err)
		}
	}
}

func firstErr(_ float64, err error) error { return err }

// firstErrAfterStart brings the tracker online and returns a
// bad-time-index predict error.
func firstErrAfterStart(t *testing.T, tr *Tracker) error {
	t.Helper()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Predict([]int{0, 0}, 99)
	return err
}

// TestCoordErrorFields pins the structured fields clients branch on.
func TestCoordErrorFields(t *testing.T) {
	tr, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ce *CoordError

	if err := tr.Push([]int{0}, 1, 0); !errors.As(err, &ce) {
		t.Fatal(err)
	} else if ce.Mode != -1 || ce.Time || ce.Got != 1 || ce.Limit != 2 {
		t.Fatalf("arity CoordError = %+v", ce)
	}

	if err := tr.Push([]int{0, 9}, 1, 0); !errors.As(err, &ce) {
		t.Fatal(err)
	} else if ce.Mode != 1 || ce.Time || ce.Got != 9 || ce.Limit != 4 {
		t.Fatalf("range CoordError = %+v", ce)
	}

	if _, err := tr.Observed([]int{0, 0}, 99); !errors.As(err, &ce) {
		t.Fatal(err)
	} else if !ce.Time || ce.Got != 99 || ce.Limit != 3 {
		t.Fatalf("time CoordError = %+v", ce)
	}
}

// TestPushBatchJoinsRejections is the PushBatch error-reporting contract:
// every rejected event appears as a *RejectError with its batch index,
// joined via errors.Join — not just the last one.
func TestPushBatchJoinsRejections(t *testing.T) {
	tr, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := []Event{
		{Coord: []int{0, 0}, Value: 1, Time: 5},  // ok
		{Coord: []int{99, 0}, Value: 1, Time: 5}, // bad coord
		{Coord: []int{1, 1}, Value: 1, Time: 6},  // ok
		{Coord: []int{0}, Value: 1, Time: 6},     // bad arity
		{Coord: []int{0, 0}, Value: 1, Time: 0},  // stale
	}
	applied, err := tr.PushBatch(batch)
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if err == nil {
		t.Fatal("expected joined rejections")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("PushBatch error %T is not a join", err)
	}
	errs := joined.Unwrap()
	if len(errs) != 3 {
		t.Fatalf("join carries %d errors, want 3: %v", len(errs), err)
	}
	wantIdx := []int{1, 3, 4}
	for i, e := range errs {
		var rej *RejectError
		if !errors.As(e, &rej) {
			t.Fatalf("join entry %d = %v, want *RejectError", i, e)
		}
		if rej.Index != wantIdx[i] {
			t.Fatalf("reject %d has index %d, want %d", i, rej.Index, wantIdx[i])
		}
	}
	// The sentinel and structured causes shine through the join.
	if !errors.Is(err, ErrStaleTimestamp) {
		t.Fatalf("join does not match ErrStaleTimestamp: %v", err)
	}
	var ce *CoordError
	if !errors.As(err, &ce) {
		t.Fatalf("join does not match *CoordError: %v", err)
	}
	// A clean batch returns a nil error, not an empty join.
	if _, err := tr.PushBatch([]Event{{Coord: []int{0, 0}, Value: 1, Time: 7}}); err != nil {
		t.Fatalf("clean batch err = %v", err)
	}
}

// TestPushRejectsBadValues: NaN, ±Inf and values whose square overflows
// are refused by Push and by PushBatch (one *RejectError per event,
// carrying its batch index and wrapping ErrBadValue), and leave the
// started tracker's event count, fitness, factors and whole checkpoint
// byte-for-byte unchanged.
func TestPushRejectsBadValues(t *testing.T) {
	tr, err := New(parallelTestConfig([]int{6, 5}, SNSRndPlus, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	driveParallel(t, tr, 5)
	checkpoint := func() []byte {
		var b bytes.Buffer
		if err := tr.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	events, fitness, before := tr.Events(), tr.Fitness(), checkpoint()
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200, math.Nextafter(maxEventValue, math.Inf(1))}
	tm := tr.Now()
	batch := make([]Event, len(bad))
	for i, v := range bad {
		if err := tr.Push([]int{1, 2}, v, tm); !errors.Is(err, ErrBadValue) {
			t.Fatalf("Push(%v) = %v, want ErrBadValue", v, err)
		}
		batch[i] = Event{Coord: []int{1, 2}, Value: v, Time: tm}
	}
	applied, err := tr.PushBatch(batch)
	if applied != 0 {
		t.Fatalf("PushBatch applied %d bad events", applied)
	}
	errs := err.(interface{ Unwrap() []error }).Unwrap()
	if len(errs) != len(bad) {
		t.Fatalf("join carries %d errors, want %d: %v", len(errs), len(bad), err)
	}
	for i, e := range errs {
		var rej *RejectError
		if !errors.As(e, &rej) || rej.Index != i || !errors.Is(rej, ErrBadValue) {
			t.Fatalf("join entry %d = %v, want a *RejectError at index %d wrapping ErrBadValue", i, e, i)
		}
	}
	if tr.Events() != events || math.Float64bits(tr.Fitness()) != math.Float64bits(fitness) {
		t.Fatalf("rejected values moved the tracker: events %d→%d, fitness %v→%v", events, tr.Events(), fitness, tr.Fitness())
	}
	if !bytes.Equal(checkpoint(), before) {
		t.Fatal("rejected values changed the checkpointed window or factors")
	}
	// The bound itself is accepted.
	for _, v := range []float64{maxEventValue, -maxEventValue, 0} {
		if err := tr.Push([]int{1, 2}, v, tm); err != nil {
			t.Fatalf("Push(%v) = %v, want accepted", v, err)
		}
	}
}

// TestErrorTaxonomyEngine covers the engine- and handle-level sentinels,
// including the removed-while-handle-held transition to ErrStreamStopped.
func TestErrorTaxonomyEngine(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	st, err := e.AddStream("s", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := e.Stream("nope"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("Stream(unknown) = %v", err)
	}
	if _, err := st.Predict([]int{0, 0}, 0); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("handle Predict before Start = %v", err)
	}
	var ce *CoordError
	if _, err := st.Observed(bg, []int{9, 9}, 0); !errors.As(err, &ce) {
		t.Fatalf("handle Observed bad coord = %v", err)
	}

	fillAndStart(t, e, "s", 21)
	if err := st.Start(bg); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start = %v", err)
	}

	// Removing the stream while the handle is held flips ingestion and
	// control calls to ErrStreamStopped; reads keep serving.
	if st.Stopped() {
		t.Fatal("handle stopped before removal")
	}
	if err := e.RemoveStream("s"); err != nil {
		t.Fatal(err)
	}
	if !st.Stopped() {
		t.Fatal("handle not stopped after removal")
	}
	if err := st.Push(bg, []int{0, 0}, 1, 1000); !errors.Is(err, ErrStreamStopped) {
		t.Fatalf("push to removed stream = %v", err)
	}
	if err := st.Flush(bg); !errors.Is(err, ErrStreamStopped) {
		t.Fatalf("flush of removed stream = %v", err)
	}
	if err := st.AdvanceTo(bg, 2000); !errors.Is(err, ErrStreamStopped) {
		t.Fatalf("advance of removed stream = %v", err)
	}
	// The last published snapshot is still readable through the handle.
	if snap := st.Snapshot(); !snap.Started || snap.Stream != "s" {
		t.Fatalf("stopped-handle snapshot = %+v", snap)
	}
	if _, err := st.Predict([]int{0, 0}, 0); err != nil {
		t.Fatalf("stopped-handle predict = %v", err)
	}

	// Once the whole engine is down the same calls report ErrEngineClosed.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(bg, []int{0, 0}, 1, 1000); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("push after engine close = %v", err)
	}
}

// Error strings stay prefixed for log grep-ability even though clients
// must match values, not text.
func TestErrorStringsPrefixed(t *testing.T) {
	for _, err := range []error{
		ErrStreamNotFound, ErrStreamStopped, ErrNotStarted, ErrAlreadyStarted,
		ErrBackpressure, ErrStaleTimestamp, ErrBadValue, ErrObservedUnavailable, ErrEngineClosed,
		&CoordError{Mode: 0, Got: 9, Limit: 4},
		&CoordError{Mode: -1, Got: 1, Limit: 2},
		&CoordError{Time: true, Got: 9, Limit: 3},
		&RejectError{Index: 3, Err: ErrStaleTimestamp},
	} {
		if !strings.HasPrefix(err.Error(), "slicenstitch: ") {
			t.Errorf("%q lacks the package prefix", err.Error())
		}
	}
}
