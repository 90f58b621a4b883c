package stream

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV encodes the stream as CSV with header
// "time,i1,...,i{M-1},value". This is the interchange format for feeding
// real datasets (the paper's Divvy/Chicago/Taxi/RideAustin dumps) into the
// cmd tools, which read it back through internal/dataset.
func (s *Stream) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(s.Dims)+2)
	header = append(header, "time")
	for m := range s.Dims {
		header = append(header, fmt.Sprintf("i%d", m+1))
	}
	header = append(header, "value")
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, t := range s.Tuples {
		rec[0] = strconv.FormatInt(t.Time, 10)
		for m, i := range t.Coord {
			rec[m+1] = strconv.Itoa(i)
		}
		rec[len(rec)-1] = strconv.FormatFloat(t.Value, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
