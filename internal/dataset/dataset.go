// Package dataset loads timestamped sparse-tensor event streams from the
// file formats the paper's datasets ship in: CSV dumps (New York Taxi,
// Chicago Crime, …) and FROSTT-style `.tns` coordinate lists (Ride
// Austin's 4-mode tensor). Loaders are streaming and bounded-memory — an
// 84M-nonzero trace is iterated one event at a time, never materialized —
// which is what the replay harness (cmd/snsload) and the experiment
// driver (cmd/snsexp) need to work at paper scale.
//
// Both loaders share the same shape: Open (or OpenReader) returns a
// Reader whose Next yields Events until io.EOF, with gzip transparently
// layered for `.gz` paths. Column/mode mapping, timestamp scaling, and
// header handling are configured through Options. ScanFile makes one
// streaming pass to learn what a replay needs up front — mode sizes, the
// event count, the time span, and whether the trace is time-sorted.
package dataset

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"slicenstitch/internal/stream"
)

// Event is one timestamped stream tuple: categorical coordinates, a
// value, and an integer time tick. Coord is freshly allocated on every
// Next, so callers may retain events (batch them, queue them) without
// copying.
type Event struct {
	Coord []int
	Value float64
	Time  int64
}

// Reader is a streaming event iterator. Next returns io.EOF after the
// last event and a descriptive error (with the offending line number) on
// a malformed row; iteration cannot continue after an error. Close
// releases the underlying file and gzip state.
type Reader interface {
	Next() (Event, error)
	Close() error
}

// Format selects the on-disk layout.
type Format int

const (
	// FormatAuto infers the format from the path: `.tns` (optionally
	// `.tns.gz`) is a FROSTT coordinate list, everything else is CSV.
	FormatAuto Format = iota
	// FormatCSV is a delimited text file, one event per row.
	FormatCSV
	// FormatTNS is a FROSTT `.tns` coordinate list: whitespace-separated
	// 1-based mode indices followed by a value, `#` comments allowed.
	FormatTNS
)

// Options configures how rows map to events. The zero value handles the
// common cases: CSV rows laid out `time,i1,…,iM,value` (the snsgen
// interchange format) with an optional header, and `.tns` rows whose
// last mode index is the timestamp.
type Options struct {
	// Format overrides path-based format detection.
	Format Format

	// Comma is the CSV field delimiter (default ',').
	Comma rune
	// TimeCol is the CSV column holding the timestamp (default 0).
	TimeCol int
	// ValueCol is the CSV column holding the value; -1 (and the default
	// 0 meaning "unset" when TimeCol is also 0) selects the last column.
	// Use ValueCol explicitly when the layout differs from
	// time-first/value-last.
	ValueCol int
	// CoordCols lists the CSV columns holding categorical indices, in
	// mode order. Empty means "every column that is neither TimeCol nor
	// the value column", in file order.
	CoordCols []int
	// NoHeader disables header detection. By default the first row is
	// skipped when its time column does not parse as an integer (CSV
	// dumps usually carry a "time,i1,…,value" header).
	NoHeader bool

	// TimeMode is the `.tns` mode index (0-based, counting index columns
	// only) holding the timestamp; -1 or the default 0-with-unset
	// convention selects the last mode. Use TimeModeSet to pick mode 0
	// explicitly.
	TimeMode int
	// TimeModeSet marks TimeMode as explicitly chosen (so TimeMode 0 is
	// distinguishable from "default to last").
	TimeModeSet bool
	// Base is subtracted from `.tns` indices to make them 0-based
	// (default 1, the FROSTT convention). It applies to coordinate
	// columns only; timestamps get TimeOffset instead.
	Base int
	// BaseSet marks Base as explicitly chosen (so Base 0 — already
	// 0-based files — is distinguishable from the default).
	BaseSet bool

	// TimeOffset is subtracted from every raw timestamp before scaling —
	// the trace's epoch, so replay clocks start near zero.
	TimeOffset int64
	// TimeDiv divides (timestamp − TimeOffset) to coarsen resolution,
	// e.g. 60 turns Unix seconds into minute ticks (default 1).
	TimeDiv int64
}

func (o Options) withDefaults() Options {
	if o.Comma == 0 {
		o.Comma = ','
	}
	if o.ValueCol == 0 && o.TimeCol == 0 {
		o.ValueCol = -1 // value defaults to the last column
	}
	if !o.TimeModeSet {
		o.TimeMode = -1 // time defaults to the last mode
	}
	if !o.BaseSet {
		o.Base = 1
	}
	if o.TimeDiv == 0 {
		o.TimeDiv = 1
	}
	return o
}

func (o Options) validate() error {
	if o.TimeDiv < 1 {
		return fmt.Errorf("dataset: TimeDiv must be positive, got %d", o.TimeDiv)
	}
	if o.TimeCol < 0 {
		return fmt.Errorf("dataset: TimeCol must be non-negative, got %d", o.TimeCol)
	}
	if o.Base < 0 {
		return fmt.Errorf("dataset: Base must be non-negative, got %d", o.Base)
	}
	return nil
}

// detectFormat resolves FormatAuto from the path suffix.
func detectFormat(path string, f Format) Format {
	if f != FormatAuto {
		return f
	}
	p := strings.TrimSuffix(path, ".gz")
	if strings.HasSuffix(p, ".tns") {
		return FormatTNS
	}
	return FormatCSV
}

// fileReader wraps a loader with its file and optional gzip layer so one
// Close releases everything.
type fileReader struct {
	Reader
	closers []io.Closer
}

func (f *fileReader) Close() error {
	var first error
	for _, c := range f.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Open opens a dataset file for streaming. Paths ending in `.gz` are
// decompressed transparently; the format comes from Options.Format or,
// under FormatAuto, the path suffix.
func Open(path string, opts Options) (Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var r io.Reader = f
	closers := []io.Closer{f}
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("dataset: %s: %w", path, err)
		}
		r = gz
		closers = []io.Closer{gz, f}
	}
	inner, err := OpenReader(r, detectFormat(path, opts.Format), opts)
	if err != nil {
		for _, c := range closers {
			c.Close()
		}
		return nil, err
	}
	return &fileReader{Reader: inner, closers: closers}, nil
}

// OpenReader builds a streaming loader over an already-open source (no
// gzip layering, no format detection — format must be concrete).
func OpenReader(r io.Reader, format Format, opts Options) (Reader, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	switch format {
	case FormatCSV:
		return newCSVReader(r, opts), nil
	case FormatTNS:
		return newTNSReader(r, opts), nil
	}
	return nil, fmt.Errorf("dataset: OpenReader requires a concrete format, got %d", format)
}

// Stats summarizes one streaming pass over a dataset — everything a
// replay needs to size its target stream before sending the first event.
type Stats struct {
	// Events is the number of well-formed events.
	Events int64 `json:"events"`
	// Dims are the smallest mode sizes containing every coordinate
	// (max index + 1 per mode).
	Dims []int `json:"dims"`
	// MinTime and MaxTime span the (mapped) timestamps.
	MinTime int64 `json:"minTime"`
	MaxTime int64 `json:"maxTime"`
	// Sorted reports whether events appear in non-decreasing time order —
	// a requirement for replay, since the engine rejects stale
	// timestamps.
	Sorted bool `json:"sorted"`
	// TotalValue is the sum of event values (nonzero mass).
	TotalValue float64 `json:"totalValue"`
}

// Scan drains a Reader into summary statistics. The Reader is consumed
// but not closed.
func Scan(r Reader) (Stats, error) {
	st := Stats{Sorted: true}
	prev := int64(0)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Stats{}, err
		}
		if st.Events == 0 {
			st.MinTime, st.MaxTime = ev.Time, ev.Time
			st.Dims = make([]int, len(ev.Coord))
		} else {
			if ev.Time < prev {
				st.Sorted = false
			}
			if ev.Time < st.MinTime {
				st.MinTime = ev.Time
			}
			if ev.Time > st.MaxTime {
				st.MaxTime = ev.Time
			}
		}
		if len(ev.Coord) != len(st.Dims) {
			return Stats{}, fmt.Errorf("dataset: event %d has %d modes, first event had %d",
				st.Events, len(ev.Coord), len(st.Dims))
		}
		for m, i := range ev.Coord {
			if i+1 > st.Dims[m] {
				st.Dims[m] = i + 1
			}
		}
		st.TotalValue += ev.Value
		prev = ev.Time
		st.Events++
	}
	return st, nil
}

// ScanFile opens path and makes one full streaming pass. Replay tools
// call it before Open-ing the file again for the actual replay: two
// sequential passes keep memory bounded regardless of trace size.
func ScanFile(path string, opts Options) (Stats, error) {
	r, err := Open(path, opts)
	if err != nil {
		return Stats{}, err
	}
	defer r.Close()
	return Scan(r)
}

// Collect drains a Reader into an in-memory stream over the mode sizes
// dims and validates it (arity, index range, NaN values, chronological
// order) — for tools that need the whole trace at once, like snsgen
// -summarize and snsanomaly -input. The Reader is consumed but not
// closed.
func Collect(r Reader, dims []int) (*stream.Stream, error) {
	s := stream.New(dims)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		s.Append(stream.Tuple{Coord: ev.Coord, Value: ev.Value, Time: ev.Time})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
