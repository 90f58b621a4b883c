package dataset

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"slicenstitch/internal/stream"
)

func drain(t *testing.T, r Reader) []Event {
	t.Helper()
	var evs []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		evs = append(evs, ev)
	}
}

func TestCSVDefaultLayout(t *testing.T) {
	// The snsgen interchange format: header, time first, value last.
	src := "time,i1,i2,value\n0,3,4,1.5\n0,1,0,2\n2,0,2,-0.5\n"
	r, err := OpenReader(strings.NewReader(src), FormatCSV, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	want := []Event{
		{Coord: []int{3, 4}, Value: 1.5, Time: 0},
		{Coord: []int{1, 0}, Value: 2, Time: 0},
		{Coord: []int{0, 2}, Value: -0.5, Time: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestCSVNoHeader(t *testing.T) {
	// Header detection (the zero Options) keeps a first row whose time
	// parses, so a headerless file reads the same either way.
	src := "5,1,2,3.0\n"
	for _, opts := range []Options{{NoHeader: true}, {}} {
		r, err := OpenReader(strings.NewReader(src), FormatCSV, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, r)
		if len(got) != 1 || got[0].Time != 5 || got[0].Value != 3.0 {
			t.Fatalf("%+v: got %+v", opts, got)
		}
	}
}

func TestCSVColumnMapping(t *testing.T) {
	// Value in column 1, time in column 3, coords explicit and reordered.
	src := "7.5,10,20,100\n"
	r, err := OpenReader(strings.NewReader(src), FormatCSV, Options{
		NoHeader:  true,
		TimeCol:   3,
		ValueCol:  0,
		CoordCols: []int{2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	want := []Event{{Coord: []int{20, 10}, Value: 7.5, Time: 100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestCSVTimeScaling(t *testing.T) {
	src := "time,i,value\n1600000120,4,1\n"
	r, err := OpenReader(strings.NewReader(src), FormatCSV, Options{
		TimeOffset: 1600000000,
		TimeDiv:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	if got[0].Time != 2 {
		t.Fatalf("Time = %d, want 2", got[0].Time)
	}
}

func TestCSVMalformedRows(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"bad timestamp", "time,i,value\nx,1,2\n", `line 2: bad timestamp "x"`},
		{"bad value", "time,i,value\n0,1,nope\n", `line 2: bad value "nope"`},
		{"bad index", "time,i,value\n0,zero,2\n", `line 2: bad index "zero"`},
		{"negative index", "time,i,value\n0,-3,2\n", `line 2: negative index -3`},
		{"ragged row", "time,i,value\n0,1,2\n0,1\n", "record on line 3"},
		{"no coord columns", "0,1\n", "no coordinate columns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenReader(strings.NewReader(tc.src), FormatCSV, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, err = r.Next()
				if err != nil {
					break
				}
			}
			if err == io.EOF || err == nil {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCollect round-trips a stream through its one emitter (WriteCSV)
// and this package's CSV reader, and checks Collect applies the stream's
// validation: rows the reader accepts but the mode sizes rule out fail.
func TestCollect(t *testing.T) {
	dims := []int{3, 4}
	want := stream.New(dims)
	want.Append(stream.Tuple{Coord: []int{0, 1}, Value: 1, Time: 10})
	want.Append(stream.Tuple{Coord: []int{2, 3}, Value: 2.5, Time: 11})
	want.Append(stream.Tuple{Coord: []int{0, 1}, Value: -1e-300, Time: 11})
	want.Append(stream.Tuple{Coord: []int{1, 0}, Value: 0.1, Time: 20})
	var buf bytes.Buffer
	if err := want.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(&buf, FormatCSV, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, dims)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got.Tuples, want.Tuples)
	}

	for name, src := range map[string]string{
		"out of range": "time,i1,i2,value\n1,9,0,1\n",
		"arity":        "time,i1,value\n1,0,1\n",
		"chronology":   "time,i1,i2,value\n5,0,0,1\n4,0,0,1\n",
		"bad row":      "time,i1,i2,value\n1,0,0,zz\n",
	} {
		r, err := OpenReader(strings.NewReader(src), FormatCSV, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(r, dims); err == nil {
			t.Errorf("%s: Collect accepted %q", name, src)
		}
	}
}

func TestTNS4Mode(t *testing.T) {
	// Ride-Austin shape: 3 coordinate modes + trailing time mode,
	// 1-based indices, comments and blank lines interleaved.
	src := `# ride-austin excerpt
1 1 2 1 0.5

3 2 1 1 1.0
2 5 4 3 2.5
`
	r, err := OpenReader(strings.NewReader(src), FormatTNS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	want := []Event{
		{Coord: []int{0, 0, 1}, Value: 0.5, Time: 1},
		{Coord: []int{2, 1, 0}, Value: 1.0, Time: 1},
		{Coord: []int{1, 4, 3}, Value: 2.5, Time: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestTNSTimeModeFirst(t *testing.T) {
	src := "10 1 2 4.0\n"
	r, err := OpenReader(strings.NewReader(src), FormatTNS, Options{TimeMode: 0, TimeModeSet: true})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	want := []Event{{Coord: []int{0, 1}, Value: 4.0, Time: 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestTNSMalformedRows(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"too few fields", "1 2\n", "line 1: need at least"},
		{"mode count drift", "1 1 1 1.0\n1 1 1 1 1.0\n", "line 2: expected 4 fields, got 5"},
		{"bad value", "1 1 1 x\n", `line 1: bad value "x"`},
		{"bad index", "a 1 1 1.0\n", `line 1: bad index "a"`},
		{"below base", "0 1 1 1.0\n", "line 1: index \"0\" in mode 0 below base 1"},
		{"bad timestamp", "1 1 z 1.0\n", `line 1: bad timestamp "z"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenReader(strings.NewReader(tc.src), FormatTNS, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, err = r.Next()
				if err != nil {
					break
				}
			}
			if err == io.EOF || err == nil {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestTNSZeroBase(t *testing.T) {
	src := "0 0 5 1.0\n"
	r, err := OpenReader(strings.NewReader(src), FormatTNS, Options{BaseSet: true, Base: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	want := []Event{{Coord: []int{0, 0}, Value: 1.0, Time: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func writeFile(t *testing.T, name, content string, gz bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if gz {
		w := gzip.NewWriter(f)
		if _, err := w.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenGzipAndFormatDetection(t *testing.T) {
	csvContent := "time,i1,i2,value\n0,1,2,1.0\n1,0,0,2.0\n"
	tnsContent := "1 2 1 3.5\n"

	t.Run("csv.gz", func(t *testing.T) {
		path := writeFile(t, "trace.csv.gz", csvContent, true)
		r, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := drain(t, r)
		if len(got) != 2 || got[1].Value != 2.0 {
			t.Fatalf("got %+v", got)
		}
	})
	t.Run("tns.gz auto-detect", func(t *testing.T) {
		path := writeFile(t, "tensor.tns.gz", tnsContent, true)
		r, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := drain(t, r)
		want := []Event{{Coord: []int{0, 1}, Value: 3.5, Time: 1}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})
	t.Run("plain csv", func(t *testing.T) {
		path := writeFile(t, "trace.csv", csvContent, false)
		r, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got := drain(t, r); len(got) != 2 {
			t.Fatalf("got %d events", len(got))
		}
	})
	t.Run("corrupt gzip", func(t *testing.T) {
		path := writeFile(t, "bad.csv.gz", "not gzip at all", false)
		if _, err := Open(path, Options{}); err == nil {
			t.Fatal("want error for corrupt gzip")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := Open(filepath.Join(t.TempDir(), "nope.csv"), Options{}); err == nil {
			t.Fatal("want error for missing file")
		}
	})
}

func TestScanFile(t *testing.T) {
	content := "time,i1,i2,value\n0,3,1,1.0\n0,1,7,2.0\n5,2,0,0.5\n"
	path := writeFile(t, "trace.csv", content, false)
	st, err := ScanFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{
		Events:     3,
		Dims:       []int{4, 8},
		MinTime:    0,
		MaxTime:    5,
		Sorted:     true,
		TotalValue: 3.5,
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("got %+v, want %+v", st, want)
	}
}

func TestScanUnsorted(t *testing.T) {
	src := "time,i,value\n5,0,1\n2,0,1\n"
	r, err := OpenReader(strings.NewReader(src), FormatCSV, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Scan(r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sorted {
		t.Fatal("Sorted = true for out-of-order trace")
	}
	if st.MinTime != 2 || st.MaxTime != 5 {
		t.Fatalf("time span [%d,%d], want [2,5]", st.MinTime, st.MaxTime)
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := OpenReader(strings.NewReader(""), FormatCSV, Options{TimeDiv: -1}); err == nil {
		t.Fatal("want error for negative TimeDiv")
	}
	if _, err := OpenReader(strings.NewReader(""), FormatCSV, Options{TimeCol: -1}); err == nil {
		t.Fatal("want error for negative TimeCol")
	}
	if _, err := OpenReader(strings.NewReader(""), FormatAuto, Options{}); err == nil {
		t.Fatal("want error for FormatAuto via OpenReader")
	}
}
