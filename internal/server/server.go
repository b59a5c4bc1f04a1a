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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/dimemas"
	"repro/internal/faults"
	"repro/internal/memo"
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
	// CacheEntries bounds the shared replay cache (LRU) in recordings: one
	// per trace × machine × FMax, each a timing skeleton with up to two
	// baselines. Default 512; negative means unbounded.
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
	// traces memoizes generated workloads, bounded by TraceCacheEntries:
	// a long-running daemon must not hold one trace per distinct (app,
	// nprocs, iterations, quick) tuple forever. Replay-cache entries keyed
	// by an evicted trace simply age out of that LRU in turn.
	traces *memo.Cache[traceKey, *trace.Trace]
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
		traces:   memo.New[traceKey, *trace.Trace](cfg.TraceCacheEntries),
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
	s.mux.HandleFunc("POST /v1/replay", endpoint(s, "/v1/replay", s.replay))
	s.mux.HandleFunc("POST /v1/analyze", endpoint(s, "/v1/analyze", s.analyze))
	s.mux.HandleFunc("POST /v1/analyze/batch", endpoint(s, "/v1/analyze/batch", s.analyzeBatch))
	s.mux.HandleFunc("POST /v1/gearopt", endpoint(s, "/v1/gearopt", s.gearOpt))
	s.mux.HandleFunc("POST /v1/powercap", endpoint(s, "/v1/powercap", s.powercap))
	s.mux.HandleFunc("POST /v1/rebalance", endpoint(s, "/v1/rebalance", s.rebalance))
	s.mux.HandleFunc("POST /v1/tracegen", endpoint(s, "/v1/tracegen", s.tracegen))
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

// endpoint serves one simulation route: it takes an in-flight slot (503
// before reading the body when none is free), bounds the request by the
// per-request timeout and the body size, decodes a Req, and runs f off the
// handler goroutine. The work goroutine owns the slot until f returns, so
// MaxInFlight bounds running simulations, not just attached requests; and
// since f threads ctx into the replay and retiming loops and into workload
// generation's calibration replays (dimemas.Options.Ctx,
// analysis.Config.Ctx, gearopt.Config.Ctx, workload.Config.Ctx), a
// timed-out f aborts at its next cancellation check and the slot frees
// promptly. A panic in f is contained like a handler panic: it is logged
// and counted, and the request answers the 500 envelope.
func endpoint[Req, Resp any](s *Server, route string, f func(context.Context, *Req) (*Resp, error)) http.HandlerFunc {
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
		s.reg.inFlight.Add("", 1)
		defer s.reg.inFlight.Add("", -1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		req := new(Req)
		if err := decode(r, req, s.cfg.MaxBodyBytes); err != nil {
			<-s.sem
			finishErr(s, w, r, err)
			return
		}
		type outcome struct {
			resp     *Resp
			err      error
			panicked bool
		}
		ch := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				if v := recover(); v != nil {
					s.logPanic(r, v)
					o = outcome{panicked: true}
				}
				<-s.sem
				ch <- o
			}()
			o.resp, o.err = f(ctx, req)
		}()
		select {
		case o := <-ch:
			switch {
			case o.panicked:
				s.writeError(w, r, http.StatusInternalServerError, stagerr.Serve, "internal error")
			case o.err != nil:
				finishErr(s, w, r, o.err)
			default:
				writeJSON(w, http.StatusOK, o.resp)
			}
		case <-ctx.Done():
			finishErr(s, w, r, ctx.Err())
		}
	})
}

// traceFor resolves a TraceRef: inline text is parsed per request;
// generated workloads are memoized so every request for the same instance
// shares one trace identity — the property the replay cache keys on. The
// request context is threaded into the calibration replays so a timed-out
// request stops generating promptly; the memo never keeps a generation
// aborted that way (see internal/memo).
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
	k := traceKey{app: inst.Name, nprocs: inst.NProcs, iterations: iters, quick: spec.Quick}
	return s.traces.Do(ctx, k, func() (*trace.Trace, error) {
		// A count whose loads cannot be shaped is the client's error; the
		// memo keeps the rejection like a trace.
		if err := inst.CheckShape(); err != nil {
			return nil, stagerr.Wrap(stagerr.Validate, err)
		}
		cfg := workload.DefaultConfig()
		cfg.Iterations = iters
		cfg.SkipPECalibration = spec.Quick
		cfg.Ctx = ctx
		return workload.Generate(inst, cfg)
	})
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
		if faults.IsInjected(err) || errors.Is(err, memo.ErrFillPanicked) {
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
