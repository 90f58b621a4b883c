package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	sns "slicenstitch"
	"slicenstitch/internal/als"
	"slicenstitch/internal/core"
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/wal"
	"slicenstitch/internal/window"
)

const (
	// idleReads is how many predict reads time the HTTP edge before any
	// online tuple is sent.
	idleReads = 500
	// ckptCaptures is how many checkpoints are captured at the end.
	ckptCaptures = 5
	// minSyncs is how many WAL fsyncs are timed, enough for a p99.
	minSyncs = 1000
	// paperEta is the Tracker's default clipping threshold η.
	paperEta = 1000
)

// runLayers is the traced run: the same online tuples through each layer
// on its own, with spans around the benchmark's calls into the layer, and
// through the whole engine, in process and over HTTP.
func runLayers(ctx context.Context, o options, w workload, tr *trace, rep *report) error {
	tc := newTracer()
	cfg := tr.config(o.seed)

	bare, err := layerSplit(tr, cfg, tc, rep)
	if err != nil {
		return err
	}
	eng, err := engineLeg(ctx, o, w, tr, bare, tc, rep)
	if err != nil {
		return err
	}
	if err := walLeg(ctx, o, tr, tc, rep); err != nil {
		return err
	}
	if err := httpLeg(ctx, o, w, tr, eng, tc, rep); err != nil {
		return err
	}
	return tc.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.tsv", w.name, o.seed)))
}

// baseline is the single-threaded bare Tracker doing the engine's
// closed-loop job: the same batches, with a publish (fitness plus factor
// copy) wherever the engine publishes.
type baseline struct {
	wall, cpu time.Duration
	fitness   float64
}

// publishes returns how many snapshots the engine publishes after each
// closed-loop batch: one each time publishEvery tuples have been applied
// since the last, and one more at each chunk-ending flush.
func publishes(bs [][]sns.Event) []int {
	out := make([]int, len(bs))
	per, since := chunkLen(len(bs)), 0
	for k, b := range bs {
		if since += len(b); since >= publishEvery {
			out[k]++
			since = 0
		}
		if (k+1)%per == 0 || k == len(bs)-1 {
			out[k]++
			since = 0
		}
	}
	return out
}

// layerSplit runs the baseline and, batch by batch in step with it, the
// same job directly on internal/window, internal/core and internal/cpd:
// one span per tuple around the window calls, per change around
// Decomposer.Apply, and per publish around cpd.Fitness and the factor
// copy. Running the two in step exposes both to the same machine speed,
// so the replay's layer self times split the baseline's wall time.
func layerSplit(tr *trace, cfg sns.Config, tc *tracer, rep *report) (*baseline, error) {
	t, err := sns.New(cfg)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	for _, b := range batches(tr.fill, fillBatch) {
		if _, err := t.PushBatch(b); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if err := t.Start(); err != nil {
		return nil, err
	}
	alsWall := time.Since(start)
	tc.record("als.start", -1, start, alsWall)
	rep.set("als.start_s", "s", alsWall.Seconds())

	win := window.New(tr.dims, paperW, tr.period)
	for _, ev := range tr.fill {
		win.AdvanceTo(ev.Time, nil)
		win.Ingest(stream.Tuple{Coord: ev.Coord, Value: ev.Value, Time: ev.Time})
	}
	model := als.Run(win.X(), als.Options{Rank: paperRank, MaxIters: 20, Seed: cfg.Seed})
	dec := core.NewSNSRndPlus(win, model, cfg.Theta, paperEta, cfg.Seed)
	var cur, batch int
	changes := 0
	apply := func(ch window.Change) {
		id := tc.begin("core.apply", cur)
		dec.Apply(ch)
		tc.end(id)
		changes++
	}
	var fitness float64
	publish := func() {
		id := tc.begin("cpd.fitness", batch)
		fitness = cpd.Fitness(win.X(), dec.Model())
		tc.end(id)
		id = tc.begin("publish.copy", batch)
		copyFactors(dec.Model())
		tc.end(id)
	}

	bare := &baseline{}
	bs := tr.closed()
	pubs := publishes(bs)
	for k, b := range bs {
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := t.PushBatch(b); err != nil {
			return nil, err
		}
		for i := 0; i < pubs[k]; i++ {
			t.Fitness()
			t.Factors()
		}
		d := time.Since(start)
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		bare.wall += d
		bare.cpu += cpu1 - cpu0
		tc.record("bare.batch", -1, start, d)

		batch = tc.begin("replay.batch", -1)
		for _, ev := range b {
			cur = tc.begin("window", batch)
			win.AdvanceTo(ev.Time, apply)
			if ch, ok := win.Ingest(stream.Tuple{Coord: ev.Coord, Value: ev.Value, Time: ev.Time}); ok {
				apply(ch)
			}
			tc.end(cur)
		}
		for i := 0; i < pubs[k]; i++ {
			publish()
		}
		tc.end(batch)
	}
	bare.fitness = t.Fitness()
	if fitness != bare.fitness {
		rep.violate("layer replay fitness %v differs from the bare Tracker's %v", fitness, bare.fitness)
	}

	agg := tc.aggregate()
	wall := bare.wall.Seconds()
	winSelf, coreT := agg["window"].self, agg["core.apply"].total
	fit, cp := agg["cpd.fitness"], agg["publish.copy"]
	rep.set("window.fill_s", "s", tr.fillWall.Seconds())
	rep.set("window.us_per_change", "us", float64(winSelf)/1e3/float64(changes))
	rep.set("window.changes_per_tuple", "count", float64(changes)/float64(tr.closedN))
	rep.set("core.us_per_change", "us", float64(coreT)/1e3/float64(changes))
	rep.set("core.share", "ratio", coreT.Seconds()/wall)
	rep.set("cpd.fitness_ms", "ms", median(ms(fit.durs)))
	rep.set("cpd.fitness_share", "ratio", fit.total.Seconds()/wall)
	rep.set("tensor.nnz", "count", float64(win.X().NNZ()))
	rep.set("publish.copy_ms", "ms", median(ms(cp.durs)))
	layers := winSelf + coreT + fit.total + cp.total
	rep.set("trace.accounted_share", "ratio", layers.Seconds()/wall)
	rep.set("trace.overhead_share", "ratio", agg["replay.batch"].total.Seconds()/wall-1)
	rep.info["window_share"] = winSelf.Seconds() / wall
	rep.info["publish_copy_share"] = cp.total.Seconds() / wall
	rep.info["bare_closed_s"] = wall
	return bare, nil
}

// copyFactors deep-copies a model the way a published snapshot does.
func copyFactors(m *cpd.Model) [][][]float64 {
	out := make([][][]float64, len(m.Factors))
	for i, f := range m.Factors {
		rows := make([][]float64, f.Rows())
		for r := range rows {
			rows[r] = append([]float64(nil), f.Row(r)...)
		}
		out[i] = rows
	}
	return out
}

// engineLeg drives the root Stream in process through the same closed and
// open loops as the end-to-end run, then captures checkpoints.
func engineLeg(ctx context.Context, o options, w workload, tr *trace, bare *baseline, tc *tracer, rep *report) (*driveResult, error) {
	p, _, err := setupInproc(ctx, tr, o.seed)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	pub0 := p.st.Snapshot().Stats.Publishes
	leg := tc.begin("engine", -1)
	d, err := drive(ctx, p, tr, w, o.seconds, rep)
	tc.end(leg)
	if err != nil {
		return nil, err
	}
	rep.set("publish.count", "count", float64(p.st.Snapshot().Stats.Publishes-pub0))
	rep.set("trace.ingest_eps", "1/s", d.closed.eps)
	rep.set("engine.overhead_share", "ratio", 1-bare.cpu.Seconds()/d.closed.cpu.Seconds())
	waitP99, err := quantile(perTuple(ms(d.closed.pushes), closedBatch), 0.99)
	if err != nil {
		return nil, fmt.Errorf("push wait: %w", err)
	}
	rep.set("engine.push_wait_ms_p99", "ms", waitP99)
	if err := d.open.checks(rep); err != nil {
		return nil, err
	}
	if !w.http {
		if err := d.open.layerMetrics(rep); err != nil {
			return nil, err
		}
	}

	var caps []float64
	var size int
	for i := 0; i < ckptCaptures; i++ {
		var buf bytes.Buffer
		start := time.Now()
		err := p.st.Checkpoint(ctx, &buf)
		dur := time.Since(start)
		rep.op(err)
		tc.record("ckpt.capture", leg, start, dur)
		caps = append(caps, float64(dur)/1e6)
		size = buf.Len()
	}
	rep.set("ckpt.capture_ms", "ms", median(caps))
	rep.set("ckpt.bytes", "B", float64(size))
	return d, nil
}

// layerMetrics sets the load and queue metrics of the workload's own open
// loop.
func (r *openResult) layerMetrics(rep *report) error {
	lag, err := quantile(perTuple(ms(r.lag), openBatch), 0.99)
	if err != nil {
		return fmt.Errorf("send lag: %w", err)
	}
	depths := make([]float64, len(r.depths))
	for i, d := range r.depths {
		depths[i] = float64(d)
	}
	if len(depths) == 0 {
		return fmt.Errorf("queue depth: no status read succeeded")
	}
	depth, err := quantile(depths, 0.99)
	if err != nil {
		// A slow reader made fewer than 1000 status reads; the deepest
		// queue it saw bounds the p99 from above.
		depth = slices.Max(depths)
	}
	rep.set("load.sched_lag_p99_ms", "ms", lag)
	rep.set("engine.queue_depth_p99", "count", depth)
	return nil
}

// walLeg times internal/wal on the engine's own records: a durable engine
// logs the online tuples in open-loop-sized batches (its stream never
// starts, so nothing but the window runs behind the log), and the records
// it wrote are appended to a fresh log, each followed by an fsync until
// minSyncs have been timed.
func walLeg(ctx context.Context, o options, tr *trace, tc *tracer, rep *report) error {
	src := filepath.Join(o.workdir, "wal-src-"+o.workload)
	dst := filepath.Join(o.workdir, "wal-dst-"+o.workload)
	for _, d := range []string{src, dst} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	defer os.RemoveAll(src)
	defer os.RemoveAll(dst)
	e, err := sns.Open(sns.Options{Durability: &sns.DurabilityOptions{Dir: src, Fsync: sns.FsyncNever}})
	if err != nil {
		return err
	}
	st, err := e.AddStream(streamName, tr.streamConfig(o.seed))
	if err != nil {
		e.Close()
		return err
	}
	for _, b := range batches(tr.online, openBatch) {
		rep.op(st.PushBatch(ctx, b))
	}
	// Flush syncs the log; the records are read before Close, whose final
	// checkpoint may truncate it.
	rep.op(st.Flush(ctx))
	recs, disk, err := readLog(filepath.Join(src, "streams"))
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	l, err := wal.Open(dst, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	leg := tc.begin("wal", -1)
	var appends, syncs []float64
	for i := 0; i < max(len(recs), minSyncs); i++ {
		start := time.Now()
		_, err := l.Append(recs[i%len(recs)])
		if err == nil {
			err = l.Commit()
		}
		d := time.Since(start)
		rep.op(err)
		tc.record("wal.append", leg, start, d)
		appends = append(appends, float64(d)/1e3)
		if i < minSyncs {
			start = time.Now()
			err := l.Sync()
			d := time.Since(start)
			rep.op(err)
			tc.record("wal.fsync", leg, start, d)
			syncs = append(syncs, float64(d)/1e6)
		}
	}
	tc.end(leg)
	if err := l.Close(); err != nil {
		return err
	}
	appendP50, err := quantile(appends, 0.5)
	if err != nil {
		return err
	}
	syncP99, err := quantile(syncs, 0.99)
	if err != nil {
		return err
	}
	rep.set("wal.append_us_p50", "us", appendP50)
	rep.set("wal.fsync_ms_p99", "ms", syncP99)
	rep.set("wal.bytes_per_tuple", "B", float64(disk)/float64(len(tr.online)))
	rep.info["wal_records"] = len(recs)
	return nil
}

// readLog returns the records of the one stream log under a durable
// engine's streams directory and the log's size on disk.
func readLog(streams string) ([][]byte, int64, error) {
	dirs, err := filepath.Glob(filepath.Join(streams, "*", "wal"))
	if err != nil || len(dirs) != 1 {
		return nil, 0, fmt.Errorf("durable engine wal directory: found %v (%v)", dirs, err)
	}
	var recs [][]byte
	if _, err := wal.Replay(dirs[0], 0, func(_ uint64, p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		return nil, 0, err
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("durable engine logged no records")
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*"))
	if err != nil {
		return nil, 0, err
	}
	var disk int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, 0, err
		}
		disk += fi.Size()
	}
	return recs, disk, nil
}

// httpLeg drives an snsserve child: predict reads on an idle stream, then
// the closed and open loops with one writer and one reader connection.
func httpLeg(ctx context.Context, o options, w workload, tr *trace, eng *driveResult, tc *tracer, rep *report) error {
	h, _, err := setupHTTP(ctx, o, tr, 0)
	if err != nil {
		return err
	}
	defer func() {
		if h != nil {
			h.stop()
		}
	}()
	leg := tc.begin("http", -1)
	idle := make([]float64, 0, idleReads)
	for q := 0; q < idleReads; q++ {
		start := time.Now()
		err := h.predict(ctx, q)
		d := time.Since(start)
		rep.op(err)
		tc.record("http.predict_idle", leg, start, d)
		idle = append(idle, float64(d)/1e3)
	}
	d, err := drive(ctx, h, tr, w, o.seconds, rep)
	tc.end(leg)
	if err != nil {
		return err
	}
	err = h.stop()
	h = nil
	if err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	if d.final.Fitness != eng.final.Fitness {
		rep.violate("snsserve fitness %v differs from the in-process engine's %v", d.final.Fitness, eng.final.Fitness)
	}
	if err := d.open.checks(rep); err != nil {
		return err
	}
	for i, p := range d.open.push {
		tc.record("http.post", leg, d.open.sched.due(i).Add(d.open.lag[i]), p)
	}
	postP50 := median(us(d.open.push))
	rep.set("http.post_us_p50", "us", postP50)
	rep.set("http.self_us", "us", postP50-median(us(eng.open.push)))
	rep.set("http.predict_us_p50_idle", "us", median(idle))
	rep.set("http.predict_us_p50_load", "us", median(us(d.open.predict)))
	if w.http {
		return d.open.layerMetrics(rep)
	}
	return nil
}

func us(ds []time.Duration) []float64 {
	out := ms(ds)
	for i := range out {
		out[i] *= 1e3
	}
	return out
}
