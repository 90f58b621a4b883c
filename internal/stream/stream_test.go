package stream

import (
	"testing"
)

func sample() *Stream {
	s := New([]int{3, 4})
	s.Append(Tuple{Coord: []int{0, 1}, Value: 1, Time: 10})
	s.Append(Tuple{Coord: []int{2, 3}, Value: 2.5, Time: 11})
	s.Append(Tuple{Coord: []int{0, 1}, Value: 1, Time: 11})
	s.Append(Tuple{Coord: []int{1, 0}, Value: -1, Time: 20})
	return s
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Stream)
	}{
		{"arity", func(s *Stream) { s.Tuples[0].Coord = []int{1} }},
		{"range", func(s *Stream) { s.Tuples[0].Coord = []int{3, 0} }},
		{"negative", func(s *Stream) { s.Tuples[0].Coord = []int{-1, 0} }},
		{"order", func(s *Stream) { s.Tuples[3].Time = 5 }},
		{"nan", func(s *Stream) { s.Tuples[1].Value = nan() }},
	}
	for _, c := range cases {
		s := sample()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func nan() float64 {
	f := 0.0
	return f / f
}

func TestSortByTime(t *testing.T) {
	s := New([]int{2})
	s.Append(Tuple{Coord: []int{0}, Value: 1, Time: 5})
	s.Append(Tuple{Coord: []int{1}, Value: 2, Time: 3})
	s.SortByTime()
	if s.Tuples[0].Time != 3 || s.Tuples[1].Time != 5 {
		t.Errorf("not sorted: %+v", s.Tuples)
	}
}

func TestSpanAndBetween(t *testing.T) {
	s := sample()
	first, last := s.Span()
	if first != 10 || last != 20 {
		t.Errorf("Span = %d,%d", first, last)
	}
	mid := s.Between(11, 20)
	if len(mid) != 2 {
		t.Errorf("Between(11,20) = %d tuples want 2", len(mid))
	}
	all := s.Between(0, 100)
	if len(all) != 4 {
		t.Errorf("Between(0,100) = %d tuples want 4", len(all))
	}
	none := s.Between(12, 20)
	if len(none) != 0 {
		t.Errorf("Between(12,20) = %d tuples want 0", len(none))
	}
	var empty Stream
	if f, l := empty.Span(); f != 0 || l != 0 {
		t.Errorf("empty Span = %d,%d", f, l)
	}
}

func TestSummarize(t *testing.T) {
	st := sample().Summarize()
	if st.Tuples != 4 {
		t.Errorf("Tuples = %d", st.Tuples)
	}
	if st.TotalValue != 3.5 {
		t.Errorf("TotalValue = %g", st.TotalValue)
	}
	if st.DistinctPerMode[0] != 3 || st.DistinctPerMode[1] != 3 {
		t.Errorf("DistinctPerMode = %v", st.DistinctPerMode)
	}
	if st.RatePerUnit <= 0 {
		t.Errorf("RatePerUnit = %g", st.RatePerUnit)
	}
	empty := New([]int{2}).Summarize()
	if empty.Tuples != 0 || empty.RatePerUnit != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

// failWriter errors after n bytes, exercising the CSV writer error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestWriteCSVPropagatesErrors(t *testing.T) {
	s := sample()
	if err := s.WriteCSV(&failWriter{left: 3}); err == nil {
		t.Error("expected header write error")
	}
	if err := s.WriteCSV(&failWriter{left: 20}); err == nil {
		t.Error("expected record write error")
	}
}
