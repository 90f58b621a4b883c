package slicenstitch

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slicenstitch/internal/metrics"
	"slicenstitch/internal/repl"
	"slicenstitch/internal/wal"
)

// This file is the engine's replication surface. The leader side —
// TailWAL and WriteBootstrap — exposes each durable stream's WAL and
// newest checkpoint so replicas can bootstrap and tail; the follower
// side (FollowerOptions, followerState) consumes the same surface over
// HTTP via internal/repl and applies what it fetches on the shard writer
// goroutine, through the exact decode path recovery uses. The invariant
// that makes replicas bit-identical: a stream's state is a pure function
// of (checkpoint at LSN L, WAL records [L, n)), and followers copy the
// leader's record bytes verbatim into their own WAL.

// TailChunk is one bounded read of a stream's WAL returned by TailWAL.
type TailChunk struct {
	// Records are raw WAL record payloads in LSN order starting at From.
	Records [][]byte
	// From is the requested position, Next the position after the last
	// returned record (equal when the chunk is empty).
	From, Next uint64
	// FlushedLSN is the stream's flushed WAL position at response time;
	// OldestLSN the oldest LSN still retained. A caller whose position is
	// above FlushedLSN has diverged (the leader lost an unsynced tail)
	// and must re-bootstrap.
	FlushedLSN, OldestLSN uint64
	// More reports that the byte budget cut the chunk short.
	More bool
}

// TailWAL reads the named stream's WAL records starting at from, up to
// roughly maxBytes (default 1 MiB when <= 0). When the stream is caught
// up and wait is positive, it long-polls: the call blocks until a new
// record is flushed, ctx is done, or wait elapses, then returns whatever
// is available (possibly an empty chunk — not an error). A from below
// the retained WAL range returns ErrWALGap: the caller must re-bootstrap
// from a checkpoint via WriteBootstrap.
func (e *Engine) TailWAL(ctx context.Context, name string, from uint64, maxBytes int, wait time.Duration) (TailChunk, error) {
	s, err := e.shard(name)
	if err != nil {
		return TailChunk{}, err
	}
	if s.dur == nil {
		return TailChunk{}, fmt.Errorf("%w: stream %q has no WAL (replication requires durability)", ErrConfig, name)
	}
	walDir := filepath.Join(s.dur.dir, "wal")
	for {
		c, err := wal.ReadChunk(walDir, from, maxBytes)
		if err != nil {
			if errors.Is(err, wal.ErrGap) {
				return TailChunk{}, fmt.Errorf("%w: stream %q retains LSNs from %d, requested %d",
					ErrWALGap, name, s.dur.wal.OldestLSN(), from)
			}
			return TailChunk{}, err
		}
		out := TailChunk{
			Records:    c.Records,
			From:       from,
			Next:       c.Next,
			FlushedLSN: s.dur.wal.FlushedLSN(),
			OldestLSN:  s.dur.wal.OldestLSN(),
			More:       c.More,
		}
		// Long-poll only when genuinely caught up: a diverged caller
		// (from above the flushed tip) must see the positions immediately.
		if len(c.Records) > 0 || wait <= 0 || from > out.FlushedLSN {
			return out, nil
		}
		wctx, cancel := context.WithTimeout(ctx, wait)
		werr := s.dur.wal.WaitFlushed(wctx, from+1)
		cancel()
		if werr != nil {
			if ctx.Err() != nil {
				return TailChunk{}, ctx.Err()
			}
			// Wait elapsed or the log closed under shutdown: an empty
			// chunk with fresh positions is the correct answer either way.
			return out, nil
		}
		wait = 0 // records arrived; one more read, then return whatever it finds
	}
}

// WriteBootstrap writes the named stream's bootstrap blob — its durable
// config plus newest checkpoint — to w and returns the checkpoint's LSN.
// A fresh follower restores the blob and tails the WAL from that LSN, so
// it never needs history older than the newest checkpoint. When no
// checkpoint file exists yet the writer goroutine captures a live one.
func (e *Engine) WriteBootstrap(ctx context.Context, name string, w io.Writer) (uint64, error) {
	s, err := e.shard(name)
	if err != nil {
		return 0, err
	}
	if s.dur == nil {
		return 0, fmt.Errorf("%w: stream %q has no WAL (replication requires durability)", ErrConfig, name)
	}
	cfgBytes, err := readFrameFile(filepath.Join(s.dur.dir, "config"))
	if err != nil {
		return 0, fmt.Errorf("slicenstitch: bootstrap %q: read config: %w", name, err)
	}
	// Prefer the newest on-disk checkpoint: it is always WAL-covered (the
	// truncation floor is the oldest retained checkpoint) and costs the
	// writer nothing. Skip files the concurrent pruner removed or that
	// fail their CRC; capture live as the fallback.
	var lsn uint64
	var data []byte
	if lsns, lerr := listCheckpoints(s.dur.dir); lerr == nil {
		for _, l := range lsns { // newest first
			if d, rerr := readFrameFile(ckptPath(s.dur.dir, l)); rerr == nil {
				lsn, data = l, d
				break
			}
		}
	}
	if data == nil {
		var buf bytes.Buffer
		if err := s.control(ctx, shardMsg{op: opCheckpoint, w: &buf, lsn: &lsn}); err != nil {
			return 0, err
		}
		data = buf.Bytes()
	}
	if err := repl.WriteBootstrap(w, lsn, cfgBytes, data); err != nil {
		return 0, fmt.Errorf("slicenstitch: bootstrap %q: %w", name, err)
	}
	return lsn, nil
}

// FollowerOptions configures a read replica. See Options.Follower.
type FollowerOptions struct {
	// Leader is the leader's base URL, e.g. "http://leader:8080"
	// (required). The follower mirrors the leader's stream set: streams
	// appearing on the leader are bootstrapped, streams deleted there are
	// dropped locally.
	Leader string
	// PollTimeout is the long-poll wait requested per tail call (default
	// 5s). Keep it below the leader's HTTP write timeout.
	PollTimeout time.Duration
	// MaxChunkBytes bounds one tail response (default 1 MiB).
	MaxChunkBytes int
	// RetryMin/RetryMax bound the per-stream exponential backoff after
	// transport errors (defaults 100ms / 5s).
	RetryMin, RetryMax time.Duration
	// SyncEvery is how often the follower reconciles its stream set
	// against the leader's (default 3s).
	SyncEvery time.Duration
	// HTTPClient overrides the transport used to reach the leader; nil
	// uses http.DefaultClient under per-request context deadlines.
	HTTPClient *http.Client
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollTimeout <= 0 {
		o.PollTimeout = 5 * time.Second
	}
	if o.MaxChunkBytes <= 0 {
		o.MaxChunkBytes = 1 << 20
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 3 * time.Second
	}
	return o
}

// FollowerInfo is the engine-level view of replication exposed through
// EngineMetrics.
type FollowerInfo struct {
	// Leader is the configured leader base URL.
	Leader string `json:"leader"`
	// Synced reports that the follower has completed at least one stream-
	// set reconciliation against the leader — before that, local streams
	// may be missing entirely.
	Synced bool `json:"synced"`
}

// followerState drives a read replica: one reconciler goroutine mirrors
// the leader's stream set, and one tailer goroutine per stream runs the
// internal/repl catch-up state machine against this engine.
type followerState struct {
	eng    *Engine
	opts   FollowerOptions
	client *repl.Client

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	stopOnce sync.Once

	mu         sync.Mutex
	syncedFlag bool
	// leaderSet is the leader's stream list as of the last successful
	// reconcile; readiness covers every name in it.
	leaderSet []string
	tailers   map[string]*streamTailer
}

type streamTailer struct {
	cancel context.CancelFunc
	done   chan struct{}
	stats  *metrics.ReplStats
}

func newFollowerState(e *Engine, opts FollowerOptions) (*followerState, error) {
	opts = opts.withDefaults()
	u, err := url.Parse(opts.Leader)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("%w: FollowerOptions.Leader must be an http(s) base URL, got %q", ErrConfig, opts.Leader)
	}
	//lint:ignore ctxfirst the follower's loops are engine-lifetime, not request-scoped; cancellation comes from Engine.Close
	ctx, cancel := context.WithCancel(context.Background())
	return &followerState{
		eng:     e,
		opts:    opts,
		client:  &repl.Client{BaseURL: opts.Leader, HTTP: opts.HTTPClient},
		ctx:     ctx,
		cancel:  cancel,
		tailers: map[string]*streamTailer{},
	}, nil
}

// start launches the reconciler. Called once from Open, after local
// recovery, before the engine is returned to the caller.
func (f *followerState) start() {
	f.wg.Add(1)
	go f.run()
}

// stop cancels every loop and waits for them. Idempotent; called from
// Shutdown/crash before mailboxes close, so in-flight applies drain.
func (f *followerState) stop() {
	f.stopOnce.Do(func() {
		f.cancel()
		f.wg.Wait()
	})
}

// isSynced reports whether a reconciliation has completed and every
// stream it listed exists locally. A reconcile only starts the tailers;
// a stream whose bootstrap is still in flight is not in the engine yet,
// so without the membership check a follower would report synced — and
// /readyz ready — while Metrics().Streams silently omitted that stream.
func (f *followerState) isSynced() bool {
	f.mu.Lock()
	synced, names := f.syncedFlag, f.leaderSet
	f.mu.Unlock()
	if !synced {
		return false
	}
	for _, n := range names {
		if _, err := f.eng.shard(n); err != nil {
			return false
		}
	}
	return true
}

// setSynced records a completed reconcile against the leader's stream
// list names (which the caller no longer mutates).
func (f *followerState) setSynced(names []string) {
	f.mu.Lock()
	f.syncedFlag = true
	f.leaderSet = names
	f.mu.Unlock()
}

// run is the reconciler loop: mirror the leader's stream set, then sleep.
func (f *followerState) run() {
	defer f.wg.Done()
	timer := time.NewTimer(0) // reconcile immediately on start
	defer timer.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-timer.C:
		}
		if names, err := f.reconcile(); err == nil {
			f.setSynced(names)
		}
		timer.Reset(f.opts.SyncEvery)
	}
}

// reconcile fetches the leader's stream list, starts tailers for new
// streams, drops local streams the leader no longer has, and returns the
// list.
func (f *followerState) reconcile() ([]string, error) {
	lctx, cancel := context.WithTimeout(f.ctx, 10*time.Second)
	names, err := f.client.Streams(lctx)
	cancel()
	if err != nil {
		return nil, err
	}
	leaderSet := make(map[string]bool, len(names))
	for _, n := range names {
		leaderSet[n] = true
	}
	// Retire local streams the leader deleted.
	for _, n := range f.eng.Streams() {
		if leaderSet[n] {
			continue
		}
		f.stopTailer(n)
		f.eng.dropStream(n)
	}
	for _, n := range names {
		f.ensureTailer(n)
	}
	return names, nil
}

// ensureTailer starts (once) the named stream's tail loop. A stream with
// recovered local state resumes from its own WAL position; one without
// bootstraps from the leader's newest checkpoint first.
func (f *followerState) ensureTailer(name string) {
	f.mu.Lock()
	if _, ok := f.tailers[name]; ok {
		f.mu.Unlock()
		return
	}
	stats := metrics.NewReplStats()
	tctx, cancel := context.WithCancel(f.ctx)
	st := &streamTailer{cancel: cancel, done: make(chan struct{}), stats: stats}
	f.tailers[name] = st
	f.mu.Unlock()

	needBootstrap := true
	if s, err := f.eng.shard(name); err == nil && s.dur != nil {
		s.repl.Store(stats)
		stats.SetPosition(s.dur.applied.Load(), s.dur.applied.Load())
		needBootstrap = false
	}
	t := &repl.Tailer{
		Client:  f.client,
		Stream:  name,
		Replica: &followerReplica{f: f, name: name, stats: stats},
		Stats:   stats,
		Opts: repl.TailerOptions{
			PollTimeout:   f.opts.PollTimeout,
			MaxChunkBytes: f.opts.MaxChunkBytes,
			RetryMin:      f.opts.RetryMin,
			RetryMax:      f.opts.RetryMax,
		},
		NeedBootstrap: needBootstrap,
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(st.done)
		t.Run(tctx)
	}()
}

// stopTailer cancels the named stream's tail loop and waits for it.
func (f *followerState) stopTailer(name string) {
	f.mu.Lock()
	st, ok := f.tailers[name]
	if ok {
		delete(f.tailers, name)
	}
	f.mu.Unlock()
	if ok {
		st.cancel()
		<-st.done
	}
}

// replStats returns the named stream's tailer stats (nil when no tailer
// is running yet).
func (f *followerState) replStats(name string) *metrics.ReplStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st, ok := f.tailers[name]; ok {
		return st.stats
	}
	return nil
}

// bootstrapStream replaces all local state for the stream with a leader
// checkpoint: it validates the blob, wipes any existing local shard and
// directory, writes the leader's exact config and checkpoint bytes,
// opens a WAL starting at the checkpoint's LSN, and wires the restored
// tracker in through the same addShard path recovery uses.
func (f *followerState) bootstrapStream(name string, stats *metrics.ReplStats, lsn uint64, cfgBytes, ckpt []byte) error {
	e := f.eng
	var dto streamConfigDTO
	if err := gob.NewDecoder(bytes.NewReader(cfgBytes)).Decode(&dto); err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: decode config: %w", name, err)
	}
	if dto.Name != name {
		return fmt.Errorf("%w: bootstrap config is for stream %q, want %q", ErrConfig, dto.Name, name)
	}
	cfg := StreamConfig{
		Config:          dto.Config,
		MailboxCapacity: dto.MailboxCapacity,
		Backpressure:    Backpressure(dto.Backpressure),
		PublishEvery:    dto.PublishEvery,
	}.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	tr, err := Restore(bytes.NewReader(ckpt))
	if err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: %w", name, err)
	}
	e.dur.mu.Lock()
	defer e.dur.mu.Unlock()
	// Drop the previous incarnation, if any (the re-bootstrap path).
	e.mu.Lock()
	prev, had := e.shards[name]
	if had {
		delete(e.shards, name)
	}
	e.mu.Unlock()
	if had {
		prev.stop()
	}
	if err := e.dur.removeStream(name); err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: clear local state: %w", name, err)
	}
	dir := filepath.Join(streamsRoot(e.dur.opts.Dir), encodeStreamDir(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: %w", name, err)
	}
	// The leader's exact config and checkpoint bytes land on disk, so a
	// follower restart recovers through the normal path — and recovers to
	// bit-identical state.
	if err := frameFile(filepath.Join(dir, "config"), cfgBytes); err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: write config: %w", name, err)
	}
	if err := frameFile(ckptPath(dir, lsn), ckpt); err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: write checkpoint: %w", name, err)
	}
	ws := &metrics.WALStats{}
	wopts := e.dur.opts.walOptions()
	wopts.Stats = ws
	wopts.StartLSN = lsn
	l, err := wal.Open(filepath.Join(dir, "wal"), wopts)
	if err != nil {
		return fmt.Errorf("slicenstitch: bootstrap %q: %w", name, err)
	}
	sd := e.dur.newShardDur(dir, l, ws)
	s, err := e.addShard(name, cfg, tr, sd)
	if err != nil {
		l.Close()
		return err
	}
	s.repl.Store(stats)
	return nil
}

// followerReplica adapts one engine stream to the repl.Replica surface
// the tailer drives. All methods run on the stream's tailer goroutine.
type followerReplica struct {
	f     *followerState
	name  string
	stats *metrics.ReplStats
}

// NextLSN is the local WAL's flushed position — between applies the two
// coincide, and flushed is the cross-goroutine-safe mirror.
func (r *followerReplica) NextLSN() uint64 {
	s, err := r.f.eng.shard(r.name)
	if err != nil || s.dur == nil {
		return 0
	}
	return s.dur.wal.FlushedLSN()
}

// Apply ships one chunk to the shard writer goroutine, which appends the
// records to the local WAL and applies them through the recovery path.
func (r *followerReplica) Apply(ctx context.Context, first uint64, records [][]byte) error {
	s, err := r.f.eng.shard(r.name)
	if err != nil {
		return err
	}
	return s.control(ctx, shardMsg{op: opReplApply, first: first, recs: records})
}

// Bootstrap replaces the stream's local state with the leader checkpoint.
func (r *followerReplica) Bootstrap(_ context.Context, lsn uint64, config, checkpoint []byte) error {
	return r.f.bootstrapStream(r.name, r.stats, lsn, config, checkpoint)
}
