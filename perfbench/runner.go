package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wsnbcast/internal/service"
	"wsnbcast/internal/store"
)

// poolSize is every server pool's size (Workers, SweepWorkers,
// JobWorkers): the CPU count, capped at 2 so that a run on a larger
// machine keeps the same load shape.
func poolSize() int { return min(runtime.NumCPU(), 2) }

// bench is one benchmark process's server under test: an in-process
// service.Server behind a loopback httptest listener, plus the durable
// store directory when the workload uses one.
type bench struct {
	w        *workload
	srv      *service.Server
	http     *httptest.Server
	client   *http.Client
	storeDir string
	// buf holds the last response body. Reusing it keeps the client
	// from allocating a 100 KB body per sweep hit, garbage that would
	// drive the server's GC and count in the CPU readings.
	buf []byte
}

// newBench builds and starts the server; wrap, when non-nil, wraps the
// handler (the traced run records its service spans there).
func newBench(w *workload, workDir string, wrap func(http.Handler) http.Handler) (*bench, error) {
	b := &bench{w: w}
	cfg := service.Config{
		Workers:      poolSize(),
		SweepWorkers: poolSize(),
		JobWorkers:   poolSize(),
	}
	if w.store {
		dir, err := os.MkdirTemp(workDir, "store-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		b.storeDir = dir
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	b.srv = service.New(cfg)
	var h http.Handler = b.srv
	if wrap != nil {
		h = wrap(h)
	}
	b.http = httptest.NewServer(h)
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return b, nil
}

// close drains the server and removes the store directory.
func (b *bench) close() error {
	b.http.Close()
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Drain(ctx)
	if b.storeDir != "" {
		err = errors.Join(err, os.RemoveAll(b.storeDir))
	}
	return err
}

// outcome is one request's result as the client saw it.
type outcome struct {
	latency time.Duration
	body    []byte
	digest  string // SHA-256 of body; the timed pass keeps only this
	err     error
	// Job timeline, for the traced run: offsets from send.
	accepted, firstPoint, lastPoint, done time.Duration
}

// do sends one request and reads the full response, whose body is
// valid until the bench's next exchange; for a job request
// it submits, follows /events to the terminal event and fetches
// /result. tag, when non-empty, is sent as X-Bench-Span so the traced
// handler can attribute its spans.
func (b *bench) do(ctx context.Context, r request, tag string) outcome {
	start := time.Now()
	var o outcome
	if b.w.jobs {
		o = b.doJob(ctx, r, tag, start)
	} else {
		o.body, o.err = b.post(ctx, r.Path, r.Body, tag)
	}
	o.latency = time.Since(start)
	return o
}

func (b *bench) newReq(ctx context.Context, method, path string, body []byte, tag string) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.http.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tag != "" {
		req.Header.Set(spanHeader, tag)
	}
	return req, nil
}

// post sends a body and returns the response body, valid until the
// bench's next exchange; a non-2xx status is an error.
func (b *bench) post(ctx context.Context, path string, body []byte, tag string) ([]byte, error) {
	return b.exchange(ctx, "POST", path, body, tag)
}

func (b *bench) exchange(ctx context.Context, method, path string, body []byte, tag string) ([]byte, error) {
	req, err := b.newReq(ctx, method, path, body, tag)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(b.buf[:0])
	_, err = buf.ReadFrom(resp.Body)
	b.buf = buf.Bytes()
	out := b.buf
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// sseEvent is the part of a jobs.Event the client reads.
type sseEvent struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

func (b *bench) doJob(ctx context.Context, r request, tag string, start time.Time) outcome {
	var o outcome
	st, err := b.post(ctx, "/v1/jobs", r.Body, tag)
	if err != nil {
		o.err = err
		return o
	}
	o.accepted = time.Since(start)
	var status struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(st, &status); err != nil || status.ID == "" {
		o.err = fmt.Errorf("job submit: bad status %q", st)
		return o
	}
	req, err := b.newReq(ctx, "GET", "/v1/jobs/"+status.ID+"/events", nil, tag)
	if err != nil {
		o.err = err
		return o
	}
	resp, err := b.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for terminal == "" && sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		var e sseEvent
		if err := json.Unmarshal(line[len("data: "):], &e); err != nil {
			o.err = fmt.Errorf("job events: %w", err)
			break
		}
		now := time.Since(start)
		switch e.Type {
		case "point":
			if o.firstPoint == 0 {
				o.firstPoint = now
			}
			o.lastPoint = now
		case "done":
			o.done, terminal = now, e.Type
		case "failed":
			terminal = e.Type
			o.err = fmt.Errorf("job %s failed: %s", status.ID, e.Error)
		}
	}
	resp.Body.Close()
	if o.err != nil {
		return o
	}
	if terminal == "" {
		o.err = fmt.Errorf("job %s: event stream ended without a terminal event", status.ID)
		return o
	}
	o.body, o.err = b.exchange(ctx, "GET", "/v1/jobs/"+status.ID+"/result", nil, tag)
	return o
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Store       *struct {
		Bytes int64 `json:"bytes"`
	} `json:"store"`
	Jobs *struct {
		Retries uint64 `json:"retries"`
	} `json:"jobs"`
}

func (b *bench) metrics(ctx context.Context) (metricsDoc, error) {
	var m metricsDoc
	body, err := b.exchange(ctx, "GET", "/metrics", nil, "")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

// warm sends the workload's warm-up set; any failure aborts the run.
func (b *bench) warm(ctx context.Context) error {
	for _, r := range b.w.warm() {
		if o := b.do(ctx, r, ""); o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// workDir is the run's scratch directory inside the checkout.
func workDir() (string, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
