package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	sns "slicenstitch"
	"slicenstitch/internal/als"
	"slicenstitch/internal/cpd"
)

const (
	// setupRuns is how many times a run sets the system up; setup_s is
	// the median and the last set-up is the one measured afterwards.
	setupRuns = 3
	// closedChunks splits the closed loop; each chunk ends with a flush,
	// and ingest_eps is the median chunk rate, which a burst of load from
	// other tenants of the machine moves less than the total would.
	closedChunks = 7
	// pollEvery paces the reader: one status read and one predict read
	// per tick.
	pollEvery = 2 * time.Millisecond
	// tailCut leaves the last seconds of the open loop out of the
	// visibility samples: those tuples would only be shown by the final
	// flush, not by a regular publish.
	tailCut = 2
	// maxSchedLag is the generator's validity bound: a run whose p99 send
	// lag exceeds it fell behind its schedule and counts as failed.
	maxSchedLag = 50 * time.Millisecond
	// maxDepthGrowth is how many batches the mean queue depth of the last
	// fifth of the open loop may exceed that of the first fifth before the
	// backlog counts as growing. An offered rate above capacity grows it
	// by hundreds of batches within the run.
	maxDepthGrowth = 8
	// observedWait bounds the mailbox trip of a predict read, as the
	// snsserve predict handler does.
	observedWait = 250 * time.Millisecond
	// minRelFitness is the paper's lower bound on relative fitness.
	minRelFitness = 0.72
	streamName    = "bench"
)

// status is the part of a published snapshot the benchmark reads.
type status struct {
	Events       uint64  `json:"events"`
	NNZ          int     `json:"nnz"`
	Fitness      float64 `json:"fitness"`
	Ingested     uint64  `json:"ingested"`
	IngestErrors uint64  `json:"ingestErrors"`
	QueueDepth   int     `json:"queueDepth"`
}

// sut is the system under test as the load generator drives it: the root
// Stream in process, or an snsserve child over /v1.
type sut interface {
	pushClosed(ctx context.Context, k int) error
	pushOpen(ctx context.Context, k int) error
	flush(ctx context.Context) error
	status(ctx context.Context) (status, error)
	// predict serves the q-th prediction query: the published model plus
	// an Observed trip through the shard mailbox.
	predict(ctx context.Context, q int) error
	// heapMB is the live heap after a forced GC.
	heapMB(ctx context.Context) (float64, error)
	// cpu is the CPU time the system has run so far: its process's
	// threads' time on a CPU, which excludes time the hypervisor stole.
	cpu() (time.Duration, error)
	stop() error
}

// setupResult is one set-up's cost.
type setupResult struct {
	cpu, wall time.Duration
}

// runEndToEnd measures the end-to-end metrics of one workload.
func runEndToEnd(ctx context.Context, o options, w workload, tr *trace, rep *report) error {
	// The closures return a nil interface, not a typed nil, on failure.
	setup := func(i int) (sut, setupResult, error) {
		if w.http {
			h, r, err := setupHTTP(ctx, o, tr, i)
			if err != nil {
				return nil, r, err
			}
			return h, r, nil
		}
		p, r, err := setupInproc(ctx, tr, o.seed)
		if err != nil {
			return nil, r, err
		}
		return p, r, nil
	}
	var s sut
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	var cpus, walls []float64
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stop set-up %d: %w", i-1, err)
			}
			s = nil
		}
		var r setupResult
		var err error
		if s, r, err = setup(i); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		cpus = append(cpus, r.cpu.Seconds())
		walls = append(walls, r.wall.Seconds())
	}
	rep.set("setup_s", "s", median(cpus))
	rep.info["setup_wall_s"] = median(walls)

	d, err := drive(ctx, s, tr, w, o.seconds, rep)
	if err != nil {
		return err
	}
	stopErr := s.stop()
	s = nil
	if stopErr != nil {
		return fmt.Errorf("stop: %w", stopErr)
	}
	rep.set("ingest_eps", "1/s", d.closed.eps)
	rep.info["ingest_chunk_eps"] = d.closed.rates
	rep.info["ingest_wall_eps"] = float64(tr.closedN) / d.closed.wall.Seconds()
	if err := d.open.report(rep); err != nil {
		return err
	}
	rep.set("heap_mb", "MB", d.heapMB)
	rel := checkOutputs(rep, tr, o.seed, d.final)
	rep.set("fitness", "ratio", d.final.Fitness)
	rep.set("rel_fitness", "ratio", rel)
	return nil
}

// driveResult is what one pass over the online tuples measured.
type driveResult struct {
	closed *closedResult
	open   *openResult
	final  status
	heapMB float64
}

// drive runs the closed loop, then the open loop, then a final flush, on a
// set-up system, and reads the final state and live heap.
func drive(ctx context.Context, s sut, tr *trace, w workload, seconds int, rep *report) (*driveResult, error) {
	d := &driveResult{}
	var err error
	if d.closed, err = closedLoop(ctx, s, tr.closed(), rep); err != nil {
		return nil, err
	}
	if d.open, err = openLoop(ctx, s, tr, w, seconds, rep); err != nil {
		return nil, err
	}
	rep.op(s.flush(ctx))
	d.final, err = s.status(ctx)
	rep.op(err)
	d.heapMB, err = s.heapMB(ctx)
	rep.op(err)
	return d, nil
}

// closedResult is what the closed loop measured.
type closedResult struct {
	// eps is the median over chunks of tuples per CPU second; rates holds
	// every chunk's.
	eps   float64
	rates []float64
	// cpu and wall are the loop's total CPU and wall time.
	cpu, wall time.Duration
	// pushes holds each push's duration.
	pushes []time.Duration
}

// closedLoop pushes the closed-loop segment as fast as the system takes it
// (BackpressureBlock in process, one keep-alive connection over HTTP), in
// closedChunks chunks that each end with a flush.
func closedLoop(ctx context.Context, s sut, bs [][]sns.Event, rep *report) (*closedResult, error) {
	r := &closedResult{pushes: make([]time.Duration, 0, len(bs))}
	rates := make([]float64, 0, closedChunks)
	per := chunkLen(len(bs))
	for lo := 0; lo < len(bs); lo += per {
		cpu0, err := s.cpu()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tuples := 0
		for k := lo; k < min(lo+per, len(bs)); k++ {
			t := time.Now()
			err := s.pushClosed(ctx, k)
			r.pushes = append(r.pushes, time.Since(t))
			rep.op(err)
			tuples += len(bs[k])
		}
		err = s.flush(ctx)
		rep.op(err)
		if err != nil {
			return nil, fmt.Errorf("closed-loop flush: %w", err)
		}
		r.wall += time.Since(start)
		cpu1, err := s.cpu()
		if err != nil {
			return nil, err
		}
		r.cpu += cpu1 - cpu0
		rates = append(rates, float64(tuples)/(cpu1-cpu0).Seconds())
	}
	r.rates = rates
	r.eps = median(rates)
	return r, nil
}

// chunkLen is the number of closed-loop batches per flushed chunk.
func chunkLen(n int) int { return (n + closedChunks - 1) / closedChunks }

// selfCPU is this process's CPU time (user plus system).
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU is the CPU time of every thread of process pid, from the
// scheduler's per-thread run time (nanoseconds, steal excluded).
func procCPU(pid int) (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d (%v)", pid, err)
	}
	var total time.Duration
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// openResult holds the samples of an open-loop phase.
type openResult struct {
	sched   schedule
	vis     *visibility
	predict []time.Duration
	lag     []time.Duration
	push    []time.Duration
	// depths are the queue depths the reader saw, with the offset from
	// the schedule start at which it saw them.
	depths   []int
	depthAt  []time.Duration
	seconds  int
	reads    int64
	readErrs int64
}

// openLoop offers the open-loop segment at the workload's fixed rate in
// openBatch-tuple sends while one reader alternates status and predict
// reads. Sends and reads together use two goroutines (two connections over
// HTTP).
func openLoop(ctx context.Context, s sut, tr *trace, w workload, seconds int, rep *report) (*openResult, error) {
	nSends := len(tr.online[tr.closedN:]) / openBatch
	sched := newSchedule(time.Now().Add(50*time.Millisecond), w.rate, openBatch)
	r := &openResult{
		sched:   sched,
		vis:     newVisibility(tr.counts, tr.closedN, sched, openBatch, openTuples(w.rate, seconds-tailCut)),
		lag:     make([]time.Duration, nSends),
		push:    make([]time.Duration, nSends),
		seconds: seconds,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for q := 0; ; q++ {
			select {
			case <-stop:
				return
			default:
			}
			tick := time.Now()
			st, err := s.status(ctx)
			r.reads++
			if err != nil {
				r.readErrs++
			} else {
				now := time.Now()
				r.vis.observe(st.Events, now)
				r.depths = append(r.depths, st.QueueDepth)
				r.depthAt = append(r.depthAt, now.Sub(sched.start))
			}
			t := time.Now()
			err = s.predict(ctx, q)
			r.predict = append(r.predict, time.Since(t))
			r.reads++
			if err != nil {
				r.readErrs++
			}
			if d := pollEvery - time.Since(tick); d > 0 {
				time.Sleep(d)
			}
		}
	}()
	for k := 0; k < nSends; k++ {
		r.lag[k] = sched.wait(k)
		t := time.Now()
		err := s.pushOpen(ctx, k)
		r.push[k] = time.Since(t)
		rep.op(err)
	}
	// Every measured tuple is due at least tailCut seconds before the last
	// send, so it is normally visible by now; give stragglers a little time.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.status(ctx)
		if err == nil && r.visibleAt(st.Events) {
			break
		}
		time.Sleep(pollEvery)
	}
	close(stop)
	wg.Wait()
	rep.attempted += r.reads
	rep.failed += r.readErrs
	return r, nil
}

// visibleAt reports whether a published count covers every measured tuple.
func (r *openResult) visibleAt(events uint64) bool {
	v := r.vis
	return v.measured == 0 || events >= v.counts[v.first+v.measured-1]
}

// report sets the open-loop metrics and applies the validity checks.
func (r *openResult) report(rep *report) error {
	if err := r.checks(rep); err != nil {
		return err
	}
	vis := ms(r.vis.lat)
	p50, err := quantile(vis, 0.5)
	if err != nil {
		return fmt.Errorf("visibility: %w", err)
	}
	p99, err := quantile(vis, 0.99)
	if err != nil {
		return fmt.Errorf("visibility: %w", err)
	}
	rep.set("visible_p50_ms", "ms", p50)
	rep.set("visible_p99_ms", "ms", p99)
	rep.info["visible_samples"] = len(vis)
	pred := ms(r.predict)
	rep.info["predict_samples"] = len(pred)
	if p50, err = quantile(pred, 0.5); err == nil {
		rep.info["predict_p50_ms"] = p50
	}
	if p99, err = quantile(pred, 0.99); err == nil {
		rep.info["predict_p99_ms"] = p99
	}
	return nil
}

// perTuple charges every tuple of a send with the send's value, so send
// lags are counted per tuple like the latencies they delay.
func perTuple(perSend []float64, batch int) []float64 {
	out := make([]float64, 0, len(perSend)*batch)
	for _, v := range perSend {
		for i := 0; i < batch; i++ {
			out = append(out, v)
		}
	}
	return out
}

// checks applies the open loop's output and validity checks: every
// published count matches a tuple boundary, every measured tuple became
// visible, the generator kept to its schedule and the backlog stayed flat.
func (r *openResult) checks(rep *report) error {
	if r.vis.mismatches > 0 {
		rep.violate("%d published change counts match no tuple boundary", r.vis.mismatches)
	}
	if !r.vis.done() {
		rep.violate("%d of %d measured tuples never became visible", r.vis.measured-r.vis.next, r.vis.measured)
	}
	lagP99, err := quantile(perTuple(ms(r.lag), openBatch), 0.99)
	if err != nil {
		return fmt.Errorf("send lag: %w", err)
	}
	if lagP99 > float64(maxSchedLag)/1e6 {
		rep.violate("generator fell behind: send lag p99 %.2f ms > %v", lagP99, maxSchedLag)
	}
	if first, last := r.depthWindows(); last-first > maxDepthGrowth {
		rep.violate("backlog grew: mean queue depth %.2f in the first fifth, %.2f in the last", first, last)
	}
	rep.info["send_lag_p99_ms"] = lagP99
	return nil
}

// depthWindows returns the mean queue depth over the first and the last
// fifth of the sends.
func (r *openResult) depthWindows() (first, last float64) {
	end := time.Duration(r.seconds) * time.Second
	fifth := end / 5
	var fs, fn, ls, ln float64
	for i, d := range r.depths {
		switch at := r.depthAt[i]; {
		case at < fifth:
			fs += float64(d)
			fn++
		case at > end-fifth && at <= end:
			ls += float64(d)
			ln++
		}
	}
	return fs / math.Max(fn, 1), ls / math.Max(ln, 1)
}

// checkOutputs verifies the final published state against the trace and
// returns the relative fitness. The engine's fitness must equal a bare
// Tracker.PushBatch replay of the same batches bit for bit; the change
// count and window size must equal the window replay's; nothing may have
// been rejected; and relative fitness must reach the paper's lower bound.
func checkOutputs(rep *report, tr *trace, seed int64, final status) float64 {
	bare, err := sns.New(tr.config(seed))
	if err != nil {
		rep.violate("bare tracker: %v", err)
		return 0
	}
	defer bare.Close()
	push := func(bs [][]sns.Event) {
		for _, b := range bs {
			if _, err := bare.PushBatch(b); err != nil {
				rep.violate("bare tracker rejected events: %v", err)
				return
			}
		}
	}
	push(batches(tr.fill, fillBatch))
	if err := bare.Start(); err != nil {
		rep.violate("bare tracker start: %v", err)
	}
	push(tr.closed())
	push(tr.open())
	if got, want := final.Fitness, bare.Fitness(); got != want || math.IsNaN(got) {
		rep.violate("fitness %v differs from the bare Tracker replay's %v", got, want)
	}
	if want := tr.counts[len(tr.counts)-1]; final.Events != want {
		rep.violate("final change count %d, window replay says %d", final.Events, want)
	}
	if want := tr.final.X().NNZ(); final.NNZ != want {
		rep.violate("final nnz %d, window replay says %d", final.NNZ, want)
	}
	if want := uint64(len(tr.fill) + len(tr.online)); final.Ingested != want || final.IngestErrors != 0 {
		rep.violate("ingested %d with %d errors, want %d with none", final.Ingested, final.IngestErrors, want)
	}
	x := tr.final.X()
	ref := cpd.Fitness(x, als.Run(x, als.Options{Rank: paperRank, Seed: seed}))
	rel := cpd.RelativeFitness(final.Fitness, ref)
	rep.info["als_fitness"] = ref
	if rel < minRelFitness {
		rep.violate("relative fitness %.4f below the paper's %.2f", rel, minRelFitness)
	}
	return rel
}

// inproc drives an engine stream in this process.
type inproc struct {
	e        *sns.Engine
	st       *sns.Stream
	closed   [][]sns.Event
	open     [][]sns.Event
	queries  [][]int
	heapBase uint64
}

// setupInproc opens an engine, fills the window and warm-starts the
// stream, returning the set-up's CPU and wall time.
func setupInproc(ctx context.Context, tr *trace, seed int64) (*inproc, setupResult, error) {
	p := &inproc{closed: tr.closed(), open: tr.open(), queries: tr.queries(), heapBase: liveHeap()}
	fill := batches(tr.fill, fillBatch)
	fail := func(err error) (*inproc, setupResult, error) {
		if p.e != nil {
			p.e.Close()
		}
		return nil, setupResult{}, err
	}
	cpu0, err := selfCPU()
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	p.e = sns.NewEngine()
	if p.st, err = p.e.AddStream(streamName, tr.streamConfig(seed)); err != nil {
		return fail(err)
	}
	for _, b := range fill {
		if err := p.st.PushBatch(ctx, b); err != nil {
			return fail(err)
		}
	}
	if err := p.st.Start(ctx); err != nil {
		return fail(err)
	}
	wall := time.Since(start)
	cpu1, err := selfCPU()
	if err != nil {
		return fail(err)
	}
	return p, setupResult{cpu: cpu1 - cpu0, wall: wall}, nil
}

func (p *inproc) pushClosed(ctx context.Context, k int) error {
	return p.st.PushBatch(ctx, p.closed[k])
}

func (p *inproc) pushOpen(ctx context.Context, k int) error { return p.st.PushBatch(ctx, p.open[k]) }

func (p *inproc) flush(ctx context.Context) error { return p.st.Flush(ctx) }

func (p *inproc) status(context.Context) (status, error) {
	sn := p.st.Snapshot()
	return status{Events: sn.Events, NNZ: sn.NNZ, Fitness: sn.Fitness, Ingested: sn.Ingested,
		IngestErrors: sn.IngestErrors, QueueDepth: sn.QueueDepth}, nil
}

func (p *inproc) predict(ctx context.Context, q int) error {
	c := p.queries[q%len(p.queries)]
	if _, err := p.st.Predict(c, paperW-1); err != nil {
		return err
	}
	octx, cancel := context.WithTimeout(ctx, observedWait)
	defer cancel()
	_, err := p.st.Observed(octx, c, paperW-1)
	return err
}

// heapMB is the live heap the engine holds: HeapAlloc after a forced GC
// minus the same taken before the engine was opened.
func (p *inproc) heapMB(context.Context) (float64, error) {
	return float64(int64(liveHeap())-int64(p.heapBase)) / (1 << 20), nil
}

func (p *inproc) cpu() (time.Duration, error) { return selfCPU() }

func (p *inproc) stop() error { return p.e.Close() }

// liveHeap forces two collections (the second empties sync.Pool victim
// caches) and returns HeapAlloc.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// queries are the predict coordinates, taken from the open-loop tuples.
func (tr *trace) queries() [][]int {
	out := make([][]int, 0, len(tr.online)-tr.closedN)
	for _, ev := range tr.online[tr.closedN:] {
		out = append(out, ev.Coord)
	}
	return out
}
