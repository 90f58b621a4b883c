// Command snsserve runs a live multi-stream continuous-CPD service: a
// sharded engine tracks one CP model per named tensor stream, and every
// decomposition can be inspected at any instant over HTTP while events
// keep arriving — the "time-critical application" setting the paper
// motivates, where a model must be readable at any time, not once per
// period.
//
// The server is a pure API over the engine: events arrive through the
// HTTP batch endpoint (snsgen | snsload -create replays a synthetic or
// real trace), and streams are defined at runtime with POST /v1/streams.
// Each -streams entry declares one stream at boot, shaped from a dataset
// preset and the per-stream flags, unless the engine already holds it; a
// declared stream starts unstarted and unfed. See newMux for the
// endpoint list.
//
// Usage:
//
//	snsserve -addr :8080                              # zero streams; define them over HTTP
//	snsserve -streams "taxi=NewYorkTaxi,bikes=DivvyBikes" -backpressure drop-oldest
//	snsserve -data-dir /var/lib/sns -fsync interval   # WAL + crash recovery
//	snsserve -follow http://leader:8080 -data-dir /var/lib/sns-replica   # read replica
//
// With -follow the process is a read replica: it mirrors the leader's
// stream set, bootstraps each stream from the leader's newest checkpoint,
// tails the leader's WAL over /v1/streams/{name}/wal, and serves all read
// endpoints from the replicated state while write endpoints return 403
// "read_only". /readyz reports ready only once every stream is tailing
// within -ready-max-lag records of the leader.
//
// With -data-dir the engine runs its durability subsystem, the one
// persistence story: every ingested batch is written ahead to a
// per-stream segmented WAL, background checkpoints bound recovery time,
// and a restarted snsserve recovers all stream state from the data
// directory — a crash loses at most the unsynced WAL tail (none under
// -fsync always).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slicenstitch"
	"slicenstitch/internal/datagen"
)

// serveConfig carries everything run needs; one struct instead of a dozen
// positional parameters.
type serveConfig struct {
	streams      string
	addr         string
	rank         int
	w            int
	parallelism  int
	mailbox      int
	backpressure string
	publishEvery int
	dataDir      string
	fsync        string
	pprofAddr    string
	follow       string
	readyMaxLag  uint64
	rateLimit    float64
	rateBurst    float64
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.streams, "streams", "", "comma-separated streams to declare at boot, each `preset` or `name=preset`; created unstarted unless the engine already holds them")
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&cfg.rank, "rank", 12, "CP rank")
	flag.IntVar(&cfg.w, "w", 10, "window length")
	flag.IntVar(&cfg.parallelism, "parallelism", 0, "row-solve workers per stream; 0 or 1 is sequential (bit-identical either way)")
	flag.IntVar(&cfg.mailbox, "mailbox", 256, "per-stream mailbox capacity in batches")
	flag.StringVar(&cfg.backpressure, "backpressure", "block", "full-mailbox policy: block, drop-oldest, or error")
	flag.IntVar(&cfg.publishEvery, "publish-every", 256, "events between snapshot publishes")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durability directory: per-stream WAL + background checkpoints, crash recovery on boot")
	flag.StringVar(&cfg.fsync, "fsync", "interval", "WAL fsync policy with -data-dir: always, interval, or never")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); off when empty")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read replica of this leader base URL (e.g. http://leader:8080); requires -data-dir, ignores -streams")
	flag.Uint64Var(&cfg.readyMaxLag, "ready-max-lag", 1024, "follower /readyz threshold: maximum replication lag in WAL records before the replica reports not-ready")
	flag.Float64Var(&cfg.rateLimit, "rate-limit", 0, "per-stream admission rate limit in events/sec (token bucket; over-limit pushes get 429 rate_limited); 0 disables")
	flag.Float64Var(&cfg.rateBurst, "rate-burst", 0, "admission token-bucket depth in events (default: rate-limit rounded up); batches larger than this are never admitted")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if err := run(cfg); err != nil {
		slog.Error("snsserve exiting", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger. JSON is for log pipelines, text
// for humans; both carry the same structured fields.
func newLogger(w *os.File, format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// pprofMux mounts the net/http/pprof handlers on a private mux, so the
// profiling surface binds its own listener (typically loopback) instead
// of riding the public API's DefaultServeMux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(cfg serveConfig) error {
	e, err := boot(cfg)
	if err != nil {
		return err
	}
	defer e.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           newMux(e, cfg.readyMaxLag),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slog.Info("serving", "streams", len(e.Streams()), "addr", cfg.addr)

	if cfg.pprofAddr != "" {
		// The profiling surface gets its own listener so it can bind
		// loopback while the API binds the world, and so a runaway profile
		// download cannot occupy an API server connection.
		go func() {
			slog.Info("pprof listening", "addr", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, pprofMux()); err != nil {
				slog.Error("pprof listener failed", "addr", cfg.pprofAddr, "err", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Warn("http shutdown", "err", err)
	}
	return e.Close()
}

// boot opens the engine — a follower, a durable engine, or an in-memory
// one — and declares the -streams entries on it. A stream the engine
// already holds (recovered from -data-dir) is kept as recovered; a
// follower declares nothing, because its stream set mirrors the leader's.
func boot(cfg serveConfig) (*slicenstitch.Engine, error) {
	bp, err := parseBackpressure(cfg.backpressure)
	if err != nil {
		return nil, err
	}
	specs, err := parseStreams(cfg.streams)
	if err != nil {
		return nil, err
	}
	e, err := openEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.follow != "" {
		return e, nil
	}
	existing := map[string]bool{}
	for _, n := range e.Streams() {
		existing[n] = true
	}
	for _, sp := range specs {
		if existing[sp.name] {
			continue
		}
		if _, err := e.AddStream(sp.name, slicenstitch.StreamConfig{
			Config: slicenstitch.Config{
				Dims:        sp.preset.Dims,
				W:           cfg.w,
				Period:      sp.preset.DefaultPeriod,
				Rank:        cfg.rank,
				Seed:        1,
				Parallelism: cfg.parallelism,
			},
			MailboxCapacity: cfg.mailbox,
			Backpressure:    bp,
			PublishEvery:    cfg.publishEvery,
			RateLimit:       cfg.rateLimit,
			RateBurst:       cfg.rateBurst,
		}); err != nil {
			e.Close()
			return nil, err
		}
		slog.Info("declared stream", "stream", sp.name, "preset", sp.preset.Name)
	}
	return e, nil
}

// openEngine opens the engine -follow and -data-dir ask for: a read
// replica, a durable engine recovered from its data dir, or (neither set)
// an in-memory engine.
func openEngine(cfg serveConfig) (*slicenstitch.Engine, error) {
	var opts slicenstitch.Options
	if cfg.dataDir != "" {
		policy, err := slicenstitch.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			return nil, err
		}
		opts.Durability = &slicenstitch.DurabilityOptions{Dir: cfg.dataDir, Fsync: policy}
	}
	if cfg.follow != "" {
		if cfg.dataDir == "" {
			return nil, errors.New("-follow requires -data-dir (the replica persists its copy locally)")
		}
		opts.Follower = &slicenstitch.FollowerOptions{Leader: cfg.follow}
	}
	e, err := slicenstitch.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	switch {
	case cfg.follow != "":
		slog.Info("following leader", "leader", cfg.follow, "dir", cfg.dataDir,
			"recovered", len(e.Streams()), "readyMaxLag", cfg.readyMaxLag)
	case cfg.dataDir != "":
		slog.Info("opened data dir", "dir", cfg.dataDir, "fsync", cfg.fsync,
			"recovered", len(e.Streams()))
	}
	return e, nil
}

// streamSpec pairs a stream name with its dataset preset.
type streamSpec struct {
	name   string
	preset datagen.Preset
}

// parseStreams expands "-streams" entries: `preset` or `name=preset`.
func parseStreams(raw string) ([]streamSpec, error) {
	var specs []streamSpec
	seen := map[string]bool{}
	for _, entry := range strings.Split(raw, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, presetName := entry, entry
		if i := strings.IndexByte(entry, '='); i >= 0 {
			name, presetName = strings.TrimSpace(entry[:i]), strings.TrimSpace(entry[i+1:])
		}
		p, err := datagen.PresetByName(presetName)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate stream name %q", name)
		}
		seen[name] = true
		specs = append(specs, streamSpec{name: name, preset: p.Bench()})
	}
	// An empty spec list is a valid boot: the server starts with zero
	// streams and clients define them at runtime via POST /v1/streams
	// (what snsload -create does before a replay).
	return specs, nil
}

func parseBackpressure(s string) (slicenstitch.Backpressure, error) {
	switch s {
	case "block":
		return slicenstitch.BackpressureBlock, nil
	case "drop-oldest":
		return slicenstitch.BackpressureDropOldest, nil
	case "error":
		return slicenstitch.BackpressureError, nil
	}
	return 0, fmt.Errorf("unknown backpressure policy %q (want block, drop-oldest, or error)", s)
}
