package stream_test

import (
	"bytes"
	"strings"
	"testing"

	"slicenstitch/internal/dataset"
	"slicenstitch/internal/stream"
)

// readCSV reads CSV text back the way the cmd tools do: through
// internal/dataset's reader, collected and validated over dims.
func readCSV(t *testing.T, src string, dims []int) (*stream.Stream, error) {
	t.Helper()
	r, err := dataset.OpenReader(strings.NewReader(src), dataset.FormatCSV, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.Collect(r, dims)
}

func TestCSVRoundTrip(t *testing.T) {
	s := stream.New([]int{3, 4})
	s.Append(stream.Tuple{Coord: []int{0, 1}, Value: 1, Time: 10})
	s.Append(stream.Tuple{Coord: []int{2, 3}, Value: 2.5, Time: 11})
	s.Append(stream.Tuple{Coord: []int{0, 1}, Value: 1, Time: 11})
	s.Append(stream.Tuple{Coord: []int{1, 0}, Value: -1, Time: 20})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(t, buf.String(), s.Dims)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("roundtrip length %d want %d", got.Len(), s.Len())
	}
	for i, tp := range got.Tuples {
		want := s.Tuples[i]
		if tp.Time != want.Time || tp.Value != want.Value {
			t.Errorf("tuple %d = %+v want %+v", i, tp, want)
		}
		for m := range tp.Coord {
			if tp.Coord[m] != want.Coord[m] {
				t.Errorf("tuple %d coord %d = %d want %d", i, m, tp.Coord[m], want.Coord[m])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, data string
	}{
		{"badtime", "x,0,0,1\n"},
		{"badcoord", "1,zz,0,1\n"},
		{"badvalue", "1,0,0,zz\n"},
		{"outofrange", "1,9,0,1\n"},
		{"fieldcount", "1,0,1\n"},
	}
	for _, c := range cases {
		// Behind a header, so the first bad row is not taken for one.
		if _, err := readCSV(t, "time,i1,i2,value\n"+c.data, []int{3, 4}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	got, err := readCSV(t, "7,1,2,3.5\n", []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuples[0].Value != 3.5 || got.Tuples[0].Time != 7 {
		t.Errorf("got %+v", got.Tuples)
	}
}
