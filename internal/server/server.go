// Package server implements pwrsimd, the HTTP daemon that serves the
// paper's simulation pipeline as JSON endpoints. One process holds one
// bounded dimemas.ReplayCache and one generated-workload cache shared by
// every handler, so repeated what-if queries over the same application pay
// for the baseline replay (and the trace generation) exactly once.
//
// Endpoints:
//
//	POST /v1/replay        — replay a trace at given per-rank frequencies
//	POST /v1/analyze       — MAX/AVG policy analysis with energy metrics
//	POST /v1/analyze/batch — N gear assignments retimed off one skeleton
//	POST /v1/gearopt       — gear-placement search over a workload list
//	POST /v1/powercap      — gear scheduling under a cluster power budget
//	POST /v1/rebalance     — online closed-loop rebalancing under load drift
//	POST /v1/tracegen      — generate a Table 3 synthetic workload
//	GET  /v1/apps          — list the Table 3 instances
//	GET  /healthz          — liveness
//	GET  /readyz           — readiness (503 before listener start / during drain)
//	GET  /metrics          — Prometheus text: cache stats, latencies, in-flight
//
// Simulation endpoints run behind a configurable in-flight limit (excess
// requests get 503) and a per-request timeout (504); the request context is
// threaded into the replay and retiming loops, so timed-out work stops
// running — and releases its in-flight slot — promptly instead of holding
// the slot until the abandoned simulation finishes. Shutdown drains
// in-flight requests.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dimemas"
	"repro/internal/faults"
	"repro/internal/stagerr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes the daemon.
type Config struct {
	// Addr is the listen address (default ":8723").
	Addr string
	// MaxInFlight bounds concurrently served simulation requests; excess
	// requests are rejected with 503. Default 2×GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout aborts a simulation request with 504 after this long.
	// Default 60s.
	RequestTimeout time.Duration
	// CacheEntries bounds the shared replay cache (LRU). Default 512;
	// negative means unbounded.
	CacheEntries int
	// TraceCacheEntries bounds the generated-workload cache (LRU). Default
	// 32; negative means unbounded.
	TraceCacheEntries int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// DrainGrace keeps the listener accepting (while /readyz answers 503
	// "draining") for this long after Shutdown is called, so fleet health
	// checks can route around the instance before connections are refused.
	// Default 0: drain immediately.
	DrainGrace time.Duration
	// Platform is the flat machine model requests run on unless they carry
	// their own PlatformSpec. The zero value means DefaultPlatform; echoed
	// in /healthz.
	Platform dimemas.Platform
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8723"
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.TraceCacheEntries == 0 {
		c.TraceCacheEntries = 32
	}
	if c.TraceCacheEntries < 0 {
		c.TraceCacheEntries = 0 // unbounded
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Platform == (dimemas.Platform{}) {
		c.Platform = dimemas.DefaultPlatform()
	}
	return c
}

// traceKey identifies one memoized generated workload.
type traceKey struct {
	app        string
	nprocs     int
	iterations int
	quick      bool
}

// traceEntry single-flights one workload generation.
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

// traceItem pairs a key with its entry for LRU eviction.
type traceItem struct {
	key   traceKey
	entry *traceEntry
}

// Server is the pwrsimd HTTP daemon. Create it with New; it is ready to
// serve via Handler (tests), Serve (custom listener) or ListenAndServe.
type Server struct {
	cfg      Config
	cache    *dimemas.ReplayCache
	reg      *metrics
	mux      *http.ServeMux
	root     http.Handler
	http     *http.Server
	sem      chan struct{}
	platform dimemas.Platform
	state    atomic.Int32 // starting → ready → draining (see readiness.go)

	tmu    sync.Mutex
	traces map[traceKey]*list.Element
	tlru   *list.List // front = most recently used; values are *traceItem
}

// New builds a Server over the default platform and power model.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    dimemas.NewReplayCacheWithLimit(cfg.CacheEntries),
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		platform: cfg.Platform,
		traces:   make(map[traceKey]*list.Element),
		tlru:     list.New(),
	}
	s.reg = newMetrics(s.cache, s.Ready)
	s.routes()
	s.root = s.withLifecycle(s.mux)
	s.http = &http.Server{Addr: cfg.Addr, Handler: s.root}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/apps", s.instrument("/v1/apps", s.handleApps))
	s.mux.HandleFunc("POST /v1/replay", s.limited("/v1/replay", s.handleReplay))
	s.mux.HandleFunc("POST /v1/analyze", s.limited("/v1/analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/analyze/batch", s.limited("/v1/analyze/batch", s.handleAnalyzeBatch))
	s.mux.HandleFunc("POST /v1/gearopt", s.limited("/v1/gearopt", s.handleGearOpt))
	s.mux.HandleFunc("POST /v1/powercap", s.limited("/v1/powercap", s.handlePowercap))
	s.mux.HandleFunc("POST /v1/rebalance", s.limited("/v1/rebalance", s.handleRebalance))
	s.mux.HandleFunc("POST /v1/tracegen", s.limited("/v1/tracegen", s.handleTracegen))
}

// Handler exposes the full handler chain — lifecycle middleware (request
// IDs, panic containment) over the route table — for httptest-based tests.
func (s *Server) Handler() http.Handler { return s.root }

// Cache exposes the shared replay cache (for tests and diagnostics).
func (s *Server) Cache() *dimemas.ReplayCache { return s.cache }

// Addr reports the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// Serve, ListenAndServe and Shutdown live in readiness.go: they drive the
// starting → ready → draining state machine behind GET /readyz.

// statusWriter remembers the response code for metrics and whether any
// bytes were written (so the panic recovery knows if a clean error
// envelope is still possible).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with latency/error accounting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.reg.observe(route, time.Since(start), sw.status >= 400)
	}
}

// semToken ties one in-flight semaphore slot to the lifetime of the actual
// simulation work. A request that times out (504) abandons its goroutine
// but must NOT free the slot early, or MaxInFlight would stop bounding the
// number of concurrently running simulations; the work goroutine frees the
// token when it really finishes.
type semToken struct {
	mu       sync.Mutex
	claimed  bool
	released bool
	release  func()
}

// claim transfers release responsibility to a work goroutine; it returns
// false if another call already owns the token.
func (t *semToken) claim() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.claimed {
		return false
	}
	t.claimed = true
	return true
}

// free releases the semaphore slot exactly once.
func (t *semToken) free() {
	t.mu.Lock()
	done := t.released
	t.released = true
	t.mu.Unlock()
	if !done {
		t.release()
	}
}

type semTokenKey struct{}

// limited wraps a simulation handler with the in-flight semaphore, the
// per-request timeout and metrics. Handlers receive a request whose context
// carries the deadline and the semaphore token consumed by call.
func (s *Server) limited(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrument(route, func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.reg.rejected.Add("", 1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, r, http.StatusServiceUnavailable, stagerr.Serve,
				fmt.Sprintf("server at capacity (%d in flight)", cap(s.sem)))
			return
		}
		token := &semToken{release: func() { <-s.sem }}
		defer func() {
			// If no call() claimed the token (e.g. the body failed to
			// decode), the slot is still ours to free.
			if !token.claim() {
				return
			}
			token.free()
		}()
		s.reg.inFlight.Add("", 1)
		defer s.reg.inFlight.Add("", -1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx = context.WithValue(ctx, semTokenKey{}, token)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r.WithContext(ctx))
	})
}

// call runs f off-handler and returns its result, or ctx's error if the
// deadline fires first. The in-flight slot is held until f truly returns,
// so MaxInFlight bounds running simulations, not just attached requests —
// but since the handlers thread ctx into the replay/retiming loops and
// into workload generation's calibration replays (dimemas.Options.Ctx,
// analysis.Config.Ctx, gearopt.Config.Ctx, workload.Config.Ctx), a
// timed-out f aborts at its next cancellation check and the slot frees
// promptly. A replay or generation cancelled mid-flight is not memoized,
// so the shared caches never serve a dead request's cancellation to later
// callers.
func call[T any](ctx context.Context, f func() (T, error)) (T, error) {
	token, _ := ctx.Value(semTokenKey{}).(*semToken)
	owned := token != nil && token.claim()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		if owned {
			defer token.free()
		}
		v, err := f()
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// traceFor resolves a TraceRef: inline text is parsed per request;
// generated workloads are memoized so every request for the same instance
// shares one trace identity — the property the replay cache keys on. The
// request context is threaded into the calibration replays so a timed-out
// request stops generating promptly; a generation aborted that way is not
// memoized (waiters with live contexts retry, bounded, then generate
// uncached rather than loop on repeatedly cancelled peers).
func (s *Server) traceFor(ctx context.Context, spec TraceRef) (*trace.Trace, error) {
	return span(s, stagerr.Parse, func() (*trace.Trace, error) { return s.traceResolve(ctx, spec) })
}

// traceResolve is traceFor without the parse-stage span accounting.
func (s *Server) traceResolve(ctx context.Context, spec TraceRef) (*trace.Trace, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Text != "" {
		tr, err := trace.Parse(spec.Text)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return tr, nil
	}
	inst, err := spec.instance()
	if err != nil {
		return nil, err
	}
	iters := spec.Iterations
	if iters == 0 {
		iters = workload.DefaultConfig().Iterations
	}
	generate := func() (*trace.Trace, error) {
		cfg := workload.DefaultConfig()
		cfg.Iterations = iters
		cfg.SkipPECalibration = spec.Quick
		cfg.Ctx = ctx
		return workload.Generate(inst, cfg)
	}
	k := traceKey{app: inst.Name, nprocs: inst.NProcs, iterations: iters, quick: spec.Quick}
	for attempt := 0; ; attempt++ {
		e := s.traceEntryFor(k)
		e.once.Do(func() { e.tr, e.err = generate() })
		if e.err == nil || !isCtxErr(e.err) {
			return e.tr, e.err
		}
		s.tmu.Lock()
		if el, ok := s.traces[k]; ok && el.Value.(*traceItem).entry == e {
			s.tlru.Remove(el)
			delete(s.traces, k)
		}
		s.tmu.Unlock()
		if ctx != nil {
			if own := ctx.Err(); own != nil {
				return nil, own
			}
		}
		if attempt >= 2 {
			return generate()
		}
	}
}

// traceEntryFor returns the single-flight memo entry for k, inserting (and
// possibly LRU-evicting) under the lock.
func (s *Server) traceEntryFor(k traceKey) *traceEntry {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if el, ok := s.traces[k]; ok {
		s.tlru.MoveToFront(el)
		return el.Value.(*traceItem).entry
	}
	e := &traceEntry{}
	s.traces[k] = s.tlru.PushFront(&traceItem{key: k, entry: e})
	// Bound the memo: a long-running daemon must not accumulate one
	// trace per distinct (app, nprocs, iterations, quick) tuple
	// forever. Replay-cache entries keyed by an evicted trace simply
	// age out of that LRU in turn.
	if max := s.cfg.TraceCacheEntries; max > 0 && s.tlru.Len() > max {
		back := s.tlru.Back()
		s.tlru.Remove(back)
		delete(s.traces, back.Value.(*traceItem).key)
	}
	return e
}

// isCtxErr mirrors the replay cache's classification of non-memoizable
// cancellation errors. The whole single-flight-with-ctx-eviction pattern
// in traceFor deliberately parallels dimemas.ReplayCache.flight /
// retryAfterCtxError (the entry payloads and eviction policies differ);
// keep behavioral changes to one in sync with the other.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeJSON writes v as a compact JSON body with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError emits the daemon's error envelope: the message, the stage the
// failure originated in, and the request ID assigned by the lifecycle
// middleware. Every error response, on every route, goes through here, so
// the per-stage error counters see all of them.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, stage stagerr.Stage, msg string) {
	s.reg.stageErrors.Add(string(stage), 1)
	writeJSON(w, status, ErrorBody{
		Error:     msg,
		Stage:     string(stage),
		RequestID: requestID(r.Context()),
	})
}

// decode strictly parses a JSON request body. It doubles as the handler-I/O
// fault-injection point: a chaos run can make any request fail right at the
// front door, before a slot-holding work goroutine exists.
func decode(r *http.Request, v any) error {
	if err := faults.Check(faults.HandlerIO); err != nil {
		return stagerr.Wrap(stagerr.Serve, err)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return stagerr.Errorf(stagerr.Parse, "body: %w", err)
	}
	return nil
}

// statusClientClosedRequest is nginx's non-standard code for a client that
// hung up before the response; it keeps abandoned requests out of the 504
// timeout accounting.
const statusClientClosedRequest = 499

// finishErr maps a pipeline error onto a status code and an envelope. The
// stage is the error's origin (innermost stagerr tag); untagged errors and
// request-lifecycle outcomes (timeout, client hangup) report as the serve
// stage. Injected faults answer 500 — the request was well-formed; the
// server broke — where ordinary pipeline errors are the client's 400.
func finishErr(s *Server, w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.timeouts.Add("", 1)
		s.writeError(w, r, http.StatusGatewayTimeout, stagerr.Serve, "request timed out")
	case errors.Is(err, context.Canceled):
		s.writeError(w, r, statusClientClosedRequest, stagerr.Serve, "client closed request")
	default:
		stage := stagerr.Serve
		if st, ok := stagerr.StageOf(err); ok {
			stage = st
		}
		status := http.StatusBadRequest
		if faults.IsInjected(err) {
			status = http.StatusInternalServerError
		}
		s.writeError(w, r, status, stage, err.Error())
	}
}

// span times one pipeline stage of a request and feeds the per-stage
// latency metrics, passing f's result through untouched.
func span[T any](s *Server, st stagerr.Stage, f func() (T, error)) (T, error) {
	start := time.Now()
	v, err := f()
	s.reg.stageSeconds.Add(string(st), time.Since(start).Seconds())
	s.reg.stageSpans.Add(string(st), 1)
	return v, err
}
