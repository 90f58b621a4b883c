package slicenstitch

import (
	"encoding/gob"
	"fmt"
	"io"

	"slicenstitch/internal/core"
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/window"
)

// checkpointHeader carries the tracker-level state around the window and
// model blocks.
type checkpointHeader struct {
	Version int
	Config  Config
	Started bool
	Events  uint64
}

// checkpointVersion is bumped on incompatible format changes.
//
// Version history:
//
//	1 — config + window + factor model. Restore recomputes Gram matrices
//	    from the factors and restarts the sampler from the seed, so a
//	    resumed run matches an uninterrupted one only to round-off.
//	2 — additionally carries the decomposer's auxiliary state (live Gram
//	    matrices, sampler draw position, current θ), making restore exact:
//	    a restored tracker continues bit-identically to the uninterrupted
//	    one. This is the property WAL crash recovery is built on.
const checkpointVersion = 2

// Checkpoint serializes the tracker — configuration, tensor window with
// its pending schedule, and (once started) the factor model plus the
// decomposer's auxiliary state — so tracking can resume after a restart
// with Restore.
//
// The restored tracker continues bit-identically to an uninterrupted one:
// the incrementally maintained Gram matrices and the sampler's exact draw
// position travel in the checkpoint (format version 2), so subsequent
// identical inputs produce identical factors down to the last bit. The
// only exception is the auto-θ controller (Config.LatencyBudget > 0),
// whose adaptation depends on wall-clock measurements; its current θ is
// carried over but its timing counters restart.
func (t *Tracker) Checkpoint(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(checkpointHeader{
		Version: checkpointVersion,
		Config:  t.cfg,
		Started: t.started,
		Events:  t.events,
	}); err != nil {
		return fmt.Errorf("slicenstitch: checkpoint header: %w", err)
	}
	if err := t.win.Encode(w); err != nil {
		return fmt.Errorf("slicenstitch: checkpoint window: %w", err)
	}
	if t.started {
		if err := t.dec.Model().Encode(w); err != nil {
			return fmt.Errorf("slicenstitch: checkpoint model: %w", err)
		}
		aux := core.CaptureAux(t.dec)
		if err := gob.NewEncoder(w).Encode(aux); err != nil {
			return fmt.Errorf("slicenstitch: checkpoint aux state: %w", err)
		}
	}
	return nil
}

// Restore rebuilds a tracker from a Checkpoint stream. Version-2
// checkpoints restore the exact decomposer state (see Checkpoint);
// version-1 checkpoints are still readable, with Gram matrices recomputed
// from the factors and the sampler restarted from the configured seed.
func Restore(r io.Reader) (*Tracker, error) {
	dec := gob.NewDecoder(r)
	var h checkpointHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("slicenstitch: restore header: %w", err)
	}
	if h.Version != 1 && h.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrCorruptCheckpoint, h.Version)
	}
	if err := h.Config.validate(); err != nil {
		return nil, err
	}
	win, err := window.DecodeWindow(r)
	if err != nil {
		return nil, err
	}
	t := &Tracker{cfg: h.Config, win: win, events: h.Events, idxBuf: make([]int, len(h.Config.Dims)+1), pool: newTrackerPool(h.Config)}
	if !h.Started {
		return t, nil
	}
	model, err := cpd.DecodeModel(r)
	if err != nil {
		return nil, err
	}
	if err := t.adopt(model); err != nil {
		return nil, err
	}
	if h.Version >= 2 {
		var aux core.Aux
		if err := gob.NewDecoder(r).Decode(&aux); err != nil {
			return nil, fmt.Errorf("slicenstitch: restore aux state: %w", err)
		}
		if err := core.RestoreAux(t.dec, aux); err != nil {
			return nil, fmt.Errorf("slicenstitch: restore aux state: %w", err)
		}
	}
	return t, nil
}

// adopt installs a model as the live decomposition state. The caller
// overlays the exact auxiliary state afterwards when the checkpoint
// carries it; until then the Gram matrices are the factor-derived
// recompute the constructors produce.
func (t *Tracker) adopt(model *cpd.Model) error {
	want := append(append([]int{}, t.cfg.Dims...), t.cfg.W)
	got := model.Shape()
	if len(got) != len(want) {
		return fmt.Errorf("%w: model order mismatch", ErrCorruptCheckpoint)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: model mode %d size %d != config %d", ErrCorruptCheckpoint, i, got[i], want[i])
		}
	}
	t.dec = t.newDecomposer(model)
	if t.dec == nil {
		return fmt.Errorf("%w: unknown algorithm %q", ErrCorruptCheckpoint, t.cfg.Algorithm)
	}
	t.goOnline()
	return nil
}
