package slicenstitch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slicenstitch/internal/metrics"
	"slicenstitch/internal/wal"
)

// FsyncPolicy selects when the write-ahead log pushes committed records
// to stable storage. See wal.SyncPolicy for the exact semantics; the
// trade-off is the classic one — FsyncAlways survives power loss at the
// cost of an fsync per ingest burst, FsyncInterval bounds loss to the
// sync interval, FsyncNever leaves it to the OS.
type FsyncPolicy int

const (
	// FsyncInterval (default) fsyncs at most once per FsyncEvery.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs on every group commit.
	FsyncAlways
	// FsyncNever never fsyncs explicitly.
	FsyncNever
)

// String names the policy ("interval", "always", "never").
func (p FsyncPolicy) String() string { return p.walPolicy().String() }

func (p FsyncPolicy) walPolicy() wal.SyncPolicy {
	switch p {
	case FsyncAlways:
		return wal.SyncAlways
	case FsyncNever:
		return wal.SyncNever
	}
	return wal.SyncInterval
}

// ParseFsyncPolicy converts a flag string ("always", "interval", "never")
// to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("%w: unknown fsync policy %q (want always, interval, or never)", ErrConfig, s)
}

// DurabilityOptions configures the engine's write-ahead log and
// background checkpointing. Every stream gets its own directory under
// Dir with a segmented WAL and checkpoint files; see DESIGN.md
// "Durability" for the on-disk layout and recovery protocol.
type DurabilityOptions struct {
	// Dir is the engine's data directory (required).
	Dir string
	// Fsync selects the group-commit sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes sizes WAL segments (default 8 MiB); truncation after a
	// checkpoint reclaims whole segments.
	SegmentBytes int64
	// CheckpointEvery is how many applied events may elapse between
	// background checkpoints of a shard (default 65536). Smaller values
	// bound recovery replay time; larger ones amortize the O(state)
	// serialization further.
	CheckpointEvery int
	// KeepCheckpoints is how many checkpoint files to retain per stream
	// (default 2: the newest plus one fallback against a torn newest).
	KeepCheckpoints int
}

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1 << 16
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	return o
}

func (o DurabilityOptions) validate() error {
	if o.Dir == "" {
		return fmt.Errorf("%w: DurabilityOptions.Dir is required", ErrConfig)
	}
	switch o.Fsync {
	case FsyncInterval, FsyncAlways, FsyncNever:
	default:
		return fmt.Errorf("%w: unknown fsync policy %d", ErrConfig, o.Fsync)
	}
	return nil
}

func (o DurabilityOptions) walOptions() wal.Options {
	return wal.Options{
		SegmentBytes: o.SegmentBytes,
		Sync:         o.Fsync.walPolicy(),
		SyncEvery:    o.FsyncEvery,
	}
}

// Options configures an Engine built with Open.
type Options struct {
	// Durability enables the write-ahead log and crash recovery; nil runs
	// the engine purely in memory (the NewEngine behaviour).
	Durability *DurabilityOptions
	// Follower turns the engine into a read replica of the given leader:
	// it bootstraps every leader stream from the newest checkpoint, tails
	// the leader's WAL, and serves reads while rejecting writes with
	// ErrReadOnly. Requires Durability — the replica persists its copy
	// locally, so a restart recovers and resumes tailing instead of
	// re-bootstrapping.
	Follower *FollowerOptions
}

// Open builds an engine from Options. With durability configured it
// recovers every stream found in the data directory — latest valid
// checkpoint plus WAL tail replay, tolerating a torn final record — so a
// restarted process resumes exactly where the crashed one's durable
// state ends. Streams added later via AddStream are persisted under the
// same directory.
func Open(opts Options) (*Engine, error) {
	e := NewEngine()
	if opts.Follower != nil {
		if opts.Durability == nil {
			return nil, fmt.Errorf("%w: FollowerOptions requires DurabilityOptions (the replica persists its copy locally)", ErrConfig)
		}
		f, err := newFollowerState(e, *opts.Follower)
		if err != nil {
			return nil, err
		}
		e.follower = f
	}
	if opts.Durability == nil {
		return e, nil
	}
	d := opts.Durability.withDefaults()
	if err := d.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(streamsRoot(d.Dir), 0o755); err != nil {
		return nil, fmt.Errorf("slicenstitch: open data dir: %w", err)
	}
	e.dur = &durEngine{opts: d}
	start := time.Now()
	if err := e.recoverStreams(); err != nil {
		e.Close()
		return nil, err
	}
	e.dur.recoveryNanos = time.Since(start).Nanoseconds()
	if e.follower != nil {
		e.follower.start()
	}
	return e, nil
}

// OpenDurable opens (or creates) a durable engine rooted at dir with
// default durability options — the one-line recovery entry point.
func OpenDurable(dir string) (*Engine, error) {
	return Open(Options{Durability: &DurabilityOptions{Dir: dir}})
}

// durEngine is the engine-level durability state.
type durEngine struct {
	opts DurabilityOptions
	// recoveryNanos is how long Open spent recovering every stream from
	// the data directory — 0 for a fresh directory. Written once at Open,
	// read by Engine.Metrics.
	recoveryNanos int64
	// mu serializes stream-directory create/remove against each other;
	// without it two racing AddStream("x") calls could both open
	// appenders over the same WAL files before the registry rejects the
	// duplicate.
	mu sync.Mutex
}

// streamsRoot is the directory holding one subdirectory per stream.
func streamsRoot(dir string) string { return filepath.Join(dir, "streams") }

// encodeStreamDir makes a stream name filesystem-safe: bytes outside
// [A-Za-z0-9._-] are %XX-escaped ('%' itself included), which is
// injective, so distinct stream names always get distinct directories.
// The authoritative name lives in the config file; the directory name
// only needs uniqueness.
func encodeStreamDir(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// streamConfigDTO is the wire form of a stream's durable configuration.
type streamConfigDTO struct {
	FormatVersion   int
	Name            string
	Config          Config
	MailboxCapacity int
	Backpressure    int
	PublishEvery    int
}

const streamConfigVersion = 1

// durCRC is the checksum table shared by the framed config and
// checkpoint files (same polynomial as the WAL's record frames).
var durCRC = crc32.MakeTable(crc32.Castagnoli)

// frameFile atomically writes a CRC-framed blob: tmp file, fsync, rename,
// directory fsync. A reader sees either nothing, the old content, or the
// complete new content.
func frameFile(path string, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, durCRC))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// readFrameFile reads and CRC-validates a file written by frameFile.
func readFrameFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %s: truncated header", ErrCorruptCheckpoint, path)
	}
	n := binary.LittleEndian.Uint32(data[0:])
	crc := binary.LittleEndian.Uint32(data[4:])
	if uint64(len(data)) != 8+uint64(n) {
		return nil, fmt.Errorf("%w: %s: %d payload bytes, header claims %d", ErrCorruptCheckpoint, path, len(data)-8, n)
	}
	payload := data[8:]
	if crc32.Checksum(payload, durCRC) != crc {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorruptCheckpoint, path)
	}
	return payload, nil
}

// shardDur is one shard's durability attachment, owned by its writer
// goroutine (wal, buf) and its background checkpointer (ckptC consumer).
type shardDur struct {
	dir  string // the stream's directory
	wal  *wal.Log
	opts DurabilityOptions
	buf  []byte // record-encode scratch, writer-owned
	// accepted is the writer-owned scratch logBatch compacts a batch's
	// accepted events into when some of them will be rejected.
	accepted []Event

	// walStats receives the log's counters (the same instance the wal.Log
	// records into); ckptStats the background checkpointer's. recoverNanos
	// is how long this stream's recovery (checkpoint restore + WAL replay)
	// took at Open, 0 for a stream created fresh.
	walStats     *metrics.WALStats
	ckptStats    *metrics.CheckpointStats
	recoverNanos int64

	// applied mirrors the WAL position just past the last record the
	// writer has applied (stored by noteApplied on the writer goroutine,
	// loaded wait-free by Snapshot and the replication protocol).
	applied atomic.Uint64

	ckptC    chan ckptReq
	ckptDone chan struct{}
	ckptErr  atomicErr
	// crashed simulates a hard kill: set before closing the mailbox, it
	// makes the shard abandon the WAL buffer and suppress the pending
	// checkpoint instead of flushing on the way down. Test-only.
	crashed atomic.Bool
}

// ckptReq hands a captured checkpoint to the background checkpointer.
type ckptReq struct {
	lsn  uint64
	data []byte
}

// atomicErr is a tiny error mailbox readable from any goroutine.
type atomicErr struct {
	mu  sync.Mutex
	err error
}

func (a *atomicErr) set(err error) {
	a.mu.Lock()
	a.err = err
	a.mu.Unlock()
}

func (a *atomicErr) get() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// createStream materializes a new stream's directory (config file + empty
// WAL) and returns the shard attachment. Caller holds durEngine.mu and
// has verified no live stream owns the name — so anything already at the
// path is debris (a half-created or half-removed stream the process died
// inside of; recovery skipped it for lacking a readable config) and must
// be wiped, or the new stream would inherit a dead stream's WAL segments
// and checkpoints.
func (d *durEngine) createStream(name string, cfg StreamConfig) (*shardDur, error) {
	dir := filepath.Join(streamsRoot(d.opts.Dir), encodeStreamDir(name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("slicenstitch: clear stale stream dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("slicenstitch: create stream dir: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(streamConfigDTO{
		FormatVersion:   streamConfigVersion,
		Name:            name,
		Config:          cfg.Config,
		MailboxCapacity: cfg.MailboxCapacity,
		Backpressure:    int(cfg.Backpressure),
		PublishEvery:    cfg.PublishEvery,
	}); err != nil {
		return nil, fmt.Errorf("slicenstitch: encode stream config: %w", err)
	}
	if err := frameFile(filepath.Join(dir, "config"), buf.Bytes()); err != nil {
		return nil, fmt.Errorf("slicenstitch: write stream config: %w", err)
	}
	ws := &metrics.WALStats{}
	wopts := d.opts.walOptions()
	wopts.Stats = ws
	l, err := wal.Open(filepath.Join(dir, "wal"), wopts)
	if err != nil {
		return nil, err
	}
	return d.newShardDur(dir, l, ws), nil
}

func (d *durEngine) newShardDur(dir string, l *wal.Log, ws *metrics.WALStats) *shardDur {
	return &shardDur{
		dir:       dir,
		wal:       l,
		opts:      d.opts,
		walStats:  ws,
		ckptStats: &metrics.CheckpointStats{},
		ckptC:     make(chan ckptReq, 1),
		ckptDone:  make(chan struct{}),
	}
}

// removeStream deletes a stream's directory. Caller holds durEngine.mu
// and has already stopped the shard.
func (d *durEngine) removeStream(name string) error {
	return os.RemoveAll(filepath.Join(streamsRoot(d.opts.Dir), encodeStreamDir(name)))
}

// run is the background checkpointer: it persists captured checkpoints
// and reclaims WAL segments below them. One per durable shard; exits when
// the writer closes ckptC.
func (sd *shardDur) run() {
	defer close(sd.ckptDone)
	for req := range sd.ckptC {
		if sd.crashed.Load() {
			continue
		}
		start := time.Now()
		floor, err := sd.persistCheckpoint(req)
		if err != nil {
			sd.ckptStats.RecordFailure()
			sd.ckptErr.set(err)
			continue
		}
		sd.ckptStats.RecordCheckpoint(len(req.data), time.Since(start))
		sd.ckptErr.set(nil)
		// Reclaim up to the OLDEST retained checkpoint, not the newest:
		// the retained fallback checkpoint is only a usable fallback while
		// the WAL still covers its LSN.
		if err := sd.wal.TruncateBefore(floor); err != nil {
			sd.ckptErr.set(err)
		}
	}
}

const ckptPrefix = "ckpt-"

func ckptPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x", ckptPrefix, lsn))
}

// persistCheckpoint atomically writes one checkpoint file, prunes old
// ones beyond the retention count, and returns the oldest retained LSN —
// the WAL truncation floor.
func (sd *shardDur) persistCheckpoint(req ckptReq) (uint64, error) {
	if err := frameFile(ckptPath(sd.dir, req.lsn), req.data); err != nil {
		return 0, fmt.Errorf("slicenstitch: write checkpoint: %w", err)
	}
	lsns, err := listCheckpoints(sd.dir)
	if err != nil {
		return 0, err
	}
	floor := req.lsn
	for i, lsn := range lsns { // newest first
		if i >= sd.opts.KeepCheckpoints {
			os.Remove(ckptPath(sd.dir, lsn))
		} else if lsn < floor {
			floor = lsn
		}
	}
	return floor, nil
}

// listCheckpoints returns the checkpoint LSNs in dir, newest first.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("slicenstitch: %w", err)
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ckptPrefix) || strings.HasSuffix(name, ".tmp") {
			continue
		}
		v, perr := strconv.ParseUint(strings.TrimPrefix(name, ckptPrefix), 16, 64)
		if perr != nil {
			continue
		}
		lsns = append(lsns, v)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns, nil
}

// WAL record types.
const (
	recBatch   byte = 1
	recStart   byte = 2
	recAdvance byte = 3
)

// appendZigzag appends an int64 as a zigzag varint.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func readZigzag(src []byte) (int64, int) {
	u, n := binary.Uvarint(src)
	return int64(u>>1) ^ -int64(u&1), n
}

// encodeBatchRecord serializes an ingest batch into dst[:0] and returns
// it. The writer passes only the events the tracker will accept (see
// shard.logBatch), so a rejected event never reaches the log. The
// encoding is a compact varint form, allocation-free once dst has warmed
// to batch size.
func encodeBatchRecord(dst []byte, events []Event) []byte {
	dst = append(dst[:0], recBatch)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for i := range events {
		ev := &events[i]
		dst = binary.AppendUvarint(dst, uint64(len(ev.Coord)))
		for _, c := range ev.Coord {
			dst = appendZigzag(dst, int64(c))
		}
		var vb [8]byte
		binary.LittleEndian.PutUint64(vb[:], math.Float64bits(ev.Value))
		dst = append(dst, vb[:]...)
		dst = appendZigzag(dst, ev.Time)
	}
	return dst
}

// decodeBatchRecord parses a recBatch payload (sans the leading type
// byte) back into events. Replay-path only, so it allocates freely.
func decodeBatchRecord(src []byte) ([]Event, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: batch record: bad count", ErrCorruptWAL)
	}
	src = src[n:]
	if count > uint64(wal.MaxRecordBytes) {
		return nil, fmt.Errorf("%w: batch record: absurd count %d", ErrCorruptWAL, count)
	}
	events := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		arity, n := binary.Uvarint(src)
		if n <= 0 || arity > 1024 {
			return nil, fmt.Errorf("%w: batch record: bad arity", ErrCorruptWAL)
		}
		src = src[n:]
		coord := make([]int, arity)
		for m := range coord {
			v, n := readZigzag(src)
			if n <= 0 {
				return nil, fmt.Errorf("%w: batch record: bad coord", ErrCorruptWAL)
			}
			coord[m] = int(v)
			src = src[n:]
		}
		if len(src) < 8 {
			return nil, fmt.Errorf("%w: batch record: bad value", ErrCorruptWAL)
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
		tm, n := readZigzag(src)
		if n <= 0 {
			return nil, fmt.Errorf("%w: batch record: bad time", ErrCorruptWAL)
		}
		src = src[n:]
		events = append(events, Event{Coord: coord, Value: value, Time: tm})
	}
	return events, nil
}

// recoverStreams rebuilds every stream found under the data directory:
// per stream, the newest valid checkpoint is restored and the WAL tail
// above it replayed (torn final record tolerated). A stream directory
// without a readable config file is skipped — it can only be the debris
// of an AddStream or RemoveStream the process died inside of.
func (e *Engine) recoverStreams() error {
	root := streamsRoot(e.dur.opts.Dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("slicenstitch: scan data dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(root, ent.Name())
		cfgBytes, err := readFrameFile(filepath.Join(dir, "config"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // half-created or half-removed stream
			}
			return fmt.Errorf("slicenstitch: recover %s: %w", ent.Name(), err)
		}
		var dto streamConfigDTO
		if err := gob.NewDecoder(bytes.NewReader(cfgBytes)).Decode(&dto); err != nil {
			return fmt.Errorf("slicenstitch: recover %s: decode config: %w", ent.Name(), err)
		}
		cfg := StreamConfig{
			Config:          dto.Config,
			MailboxCapacity: dto.MailboxCapacity,
			Backpressure:    Backpressure(dto.Backpressure),
			PublishEvery:    dto.PublishEvery,
		}.withDefaults()
		if err := cfg.validate(); err != nil {
			return fmt.Errorf("slicenstitch: recover %q: %w", dto.Name, err)
		}
		streamStart := time.Now()
		tr, err := recoverTracker(dir, cfg)
		if err != nil {
			return fmt.Errorf("slicenstitch: recover %q: %w", dto.Name, err)
		}
		ws := &metrics.WALStats{}
		wopts := e.dur.opts.walOptions()
		wopts.Stats = ws
		l, err := wal.Open(filepath.Join(dir, "wal"), wopts)
		if err != nil {
			return fmt.Errorf("slicenstitch: recover %q: %w", dto.Name, err)
		}
		sd := e.dur.newShardDur(dir, l, ws)
		sd.recoverNanos = time.Since(streamStart).Nanoseconds()
		if _, err := e.addShard(dto.Name, cfg, tr, sd); err != nil {
			l.Close()
			return fmt.Errorf("slicenstitch: recover %q: %w", dto.Name, err)
		}
	}
	return nil
}

// recoverTracker rebuilds one stream's tracker from its newest usable
// checkpoint plus WAL tail. When the newest checkpoint is unreadable it
// falls back to older ones (recovery then needs the WAL to still cover
// the older LSN — if truncation already reclaimed it, the error says so).
// With no checkpoint at all the whole WAL is replayed from a fresh
// tracker.
func recoverTracker(dir string, cfg StreamConfig) (*Tracker, error) {
	walDir := filepath.Join(dir, "wal")
	lsns, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	var attemptErrs []error
	for _, lsn := range lsns {
		tr, err := recoverAttempt(dir, walDir, cfg, lsn)
		if err == nil {
			return tr, nil
		}
		attemptErrs = append(attemptErrs, fmt.Errorf("checkpoint %016x: %w", lsn, err))
	}
	// No (usable) checkpoint: replay from genesis.
	tr, err := recoverAttempt(dir, walDir, cfg, 0)
	if err == nil {
		return tr, nil
	}
	attemptErrs = append(attemptErrs, fmt.Errorf("from genesis: %w", err))
	return nil, errors.Join(attemptErrs...)
}

// recoverAttempt tries one recovery path: restore the checkpoint at lsn
// (or build a fresh tracker when lsn is 0 and no file exists) and replay
// the WAL from there.
func recoverAttempt(dir, walDir string, cfg StreamConfig, lsn uint64) (*Tracker, error) {
	var tr *Tracker
	if data, err := readFrameFile(ckptPath(dir, lsn)); err == nil {
		tr, err = Restore(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
	} else if lsn == 0 && os.IsNotExist(err) {
		tr, err = New(cfg.Config)
		if err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}
	if _, err := os.Stat(walDir); os.IsNotExist(err) {
		// A checkpoint with no WAL directory: valid only when nothing
		// would be replayed anyway.
		return tr, nil
	}
	_, err := wal.Replay(walDir, lsn, func(_ uint64, payload []byte) error {
		_, aerr := applyRecord(tr, payload)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// crash simulates a hard process kill for the durability tests: shards
// stop flushing (their WAL buffers are dropped un-flushed, pending
// checkpoints are suppressed), leaving the data directory exactly as a
// real mid-ingest kill would. The engine is unusable afterwards, like
// after Shutdown.
func (e *Engine) crash() {
	if e.follower != nil {
		e.follower.stop()
	}
	e.mu.Lock()
	e.closed = true
	shards := make([]*shard, 0, len(e.shards))
	for _, s := range e.shards {
		shards = append(shards, s)
	}
	e.shards = map[string]*shard{}
	e.mu.Unlock()
	for _, s := range shards {
		if s.dur != nil {
			s.dur.crashed.Store(true)
		}
		s.mb.Close()
	}
	for _, s := range shards {
		<-s.done
	}
}

// applyRecord replays one WAL record onto a tracker and returns how many
// events it applied (for publish/checkpoint cadence on replicas).
// Application errors (a stale advance, a redundant start, or a rejected
// event in a log written before the writer validated batches ahead of
// logging them) are deliberately ignored: the original writer logged the
// record before applying it and hit the same deterministic outcome, so
// the replayed state matches the original either way. Only a malformed
// record — which the original writer could never have produced — is an
// error.
func applyRecord(tr *Tracker, payload []byte) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("%w: empty record", ErrCorruptWAL)
	}
	switch payload[0] {
	case recBatch:
		events, err := decodeBatchRecord(payload[1:])
		if err != nil {
			return 0, err
		}
		applied, _ := tr.PushBatch(events)
		return applied, nil
	case recStart:
		tr.Start()
	case recAdvance:
		tm, n := readZigzag(payload[1:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: advance record: bad time", ErrCorruptWAL)
		}
		tr.AdvanceTo(tm)
	default:
		return 0, fmt.Errorf("%w: unknown record type %d", ErrCorruptWAL, payload[0])
	}
	return 0, nil
}
