package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	sns "slicenstitch"
)

// server is an snsserve child process started with no streams, a fresh
// data directory and a pprof listener.
type server struct {
	cmd   *exec.Cmd
	base  string
	pprof string
	done  chan error
	log   *os.File
}

// startServer execs snsserve and waits until /readyz answers 200.
func startServer(ctx context.Context, o options, dataDir string) (*server, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	api, err := freePort()
	if err != nil {
		return nil, err
	}
	pp, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + api, pprof: "http://" + pp, done: make(chan error, 1), log: logf}
	s.cmd = exec.Command(o.snsserve, "-streams", "", "-addr", api, "-data-dir", dataDir,
		"-fsync", "never", "-pprof", pp)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("snsserve exited before ready: %v (log %s)", err, logf.Name())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("snsserve not ready after 15s (log %s)", logf.Name())
		}
	}
}

// stop interrupts the server (clean shutdown with a final checkpoint) and
// waits for it to exit, killing it if it takes too long.
func (s *server) stop() error {
	defer s.log.Close()
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("snsserve did not stop within 30s")
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// client is an HTTP client that holds exactly one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body; a status other than want is
// an error.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// httpSUT drives a stream of an snsserve child: the writer client sends
// events and flushes, the reader client reads status and predictions.
type httpSUT struct {
	srv          *server
	w, r         *client
	closed, open [][]byte
	queries      []string
	eventsPath   string
	flushPath    string
	statusPath   string
}

// setupHTTP starts a server, creates the stream, POSTs the window fill and
// starts the stream, returning the server's CPU time up to then and the
// set-up's wall time.
func setupHTTP(ctx context.Context, o options, tr *trace, i int) (*httpSUT, setupResult, error) {
	fill, err := encodeAll(batches(tr.fill, fillBatch))
	if err != nil {
		return nil, setupResult{}, err
	}
	create, err := json.Marshal(struct {
		Name   string           `json:"name"`
		Config sns.StreamConfig `json:"config"`
	}{streamName, tr.streamConfig(o.seed)})
	if err != nil {
		return nil, setupResult{}, err
	}
	h := &httpSUT{
		eventsPath: "/v1/streams/" + streamName + "/events",
		flushPath:  "/v1/streams/" + streamName + "/flush",
		statusPath: "/v1/streams/" + streamName,
	}
	if h.closed, err = encodeAll(tr.closed()); err != nil {
		return nil, setupResult{}, err
	}
	if h.open, err = encodeAll(tr.open()); err != nil {
		return nil, setupResult{}, err
	}
	for _, c := range tr.queries() {
		h.queries = append(h.queries, predictPath(c))
	}

	start := time.Now()
	h.srv, err = startServer(ctx, o, filepath.Join(o.workdir, fmt.Sprintf("serve-%s-%d", o.workload, i)))
	if err != nil {
		return nil, setupResult{}, err
	}
	h.w, h.r = newClient(h.srv.base), newClient(h.srv.base)
	fail := func(err error) (*httpSUT, setupResult, error) {
		h.stop()
		return nil, setupResult{}, err
	}
	if _, err := h.w.do(ctx, "POST", "/v1/streams", create, http.StatusCreated); err != nil {
		return fail(err)
	}
	for _, b := range fill {
		if err := h.post(ctx, b); err != nil {
			return fail(err)
		}
	}
	if _, err := h.w.do(ctx, "POST", "/v1/streams/"+streamName+"/start", nil, http.StatusOK); err != nil {
		return fail(err)
	}
	wall := time.Since(start)
	cpu, err := h.cpu()
	if err != nil {
		return fail(err)
	}
	return h, setupResult{cpu: cpu, wall: wall}, nil
}

func predictPath(coord []int) string {
	s := make([]string, len(coord))
	for i, c := range coord {
		s[i] = strconv.Itoa(c)
	}
	return fmt.Sprintf("/v1/streams/%s/predict?coord=%s&t=%d", streamName, strings.Join(s, ","), paperW-1)
}

func encodeAll(bs [][]sns.Event) ([][]byte, error) {
	out := make([][]byte, len(bs))
	for i, b := range bs {
		var err error
		if out[i], err = json.Marshal(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (h *httpSUT) post(ctx context.Context, body []byte) error {
	_, err := h.w.do(ctx, "POST", h.eventsPath, body, http.StatusAccepted)
	return err
}

func (h *httpSUT) pushClosed(ctx context.Context, k int) error { return h.post(ctx, h.closed[k]) }
func (h *httpSUT) pushOpen(ctx context.Context, k int) error   { return h.post(ctx, h.open[k]) }

func (h *httpSUT) flush(ctx context.Context) error {
	_, err := h.w.do(ctx, "POST", h.flushPath, nil, http.StatusOK)
	return err
}

func (h *httpSUT) status(ctx context.Context) (status, error) {
	var st status
	body, err := h.r.do(ctx, "GET", h.statusPath, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// errObservedTimedOut reports a predict answered without its observed
// value: the mailbox trip was shed or timed out.
var errObservedTimedOut = errors.New("predict: observedTimedOut")

func (h *httpSUT) predict(ctx context.Context, q int) error {
	body, err := h.r.do(ctx, "GET", h.queries[q%len(h.queries)], nil, http.StatusOK)
	if err != nil {
		return err
	}
	var resp struct {
		TimedOut bool `json:"observedTimedOut"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.TimedOut {
		return errObservedTimedOut
	}
	return nil
}

// heapMB reads HeapAlloc from the server's heap profile after a forced GC.
func (h *httpSUT) heapMB(ctx context.Context) (float64, error) {
	c := newClient(h.srv.pprof)
	defer c.close()
	body, err := c.do(ctx, "GET", "/debug/pprof/heap?gc=1&debug=1", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return float64(n) / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("heap profile has no HeapAlloc line")
}

func (h *httpSUT) cpu() (time.Duration, error) { return procCPU(h.srv.cmd.Process.Pid) }

func (h *httpSUT) stop() error {
	h.w.close()
	h.r.close()
	return h.srv.stop()
}
