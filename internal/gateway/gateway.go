// Package gateway implements pwrsimgw, the consistent-hash front of a
// sharded pwrsimd fleet. It proxies the daemon's /v1/* API unchanged —
// responses are byte-identical to hitting a backend directly — while
// routing each request's (trace, platform) key to the same backend every
// time, so every shard's replay/skeleton cache stays hot for its own keys
// and fleet throughput scales with backend count instead of stalling on
// one process's cache.
//
// The gateway maintains:
//
//   - a consistent-hash ring (virtual nodes) over the ready backends;
//     membership changes move only ~1/N of the keyspace (see ring.go);
//   - active health checks against each backend's GET /readyz, driving a
//     down → (warming →) ready state machine; joins optionally warm the
//     shard's named apps before the backend takes traffic;
//   - per-backend connection pools with bounded in-flight counts; a
//     saturated shard sheds (429 + Retry-After) instead of queueing, and
//     a fleet with no ready backend answers 502 with stage "gateway";
//   - per-request timeouts and one hedged retry: if the primary fails at
//     the transport level, or stalls past HedgeAfter, the request is
//     re-sent to the next replica on the ring and the first response wins;
//   - GET /metrics with per-backend request/error/hedge counters, shed
//     counts and ring rebalance/churn accounting.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stagerr"
	"repro/internal/workload"
)

// Config parameterizes the gateway.
type Config struct {
	// Addr is the listen address (default ":8700").
	Addr string
	// Backends lists the pwrsimd base URLs (e.g. "http://10.0.0.1:8723").
	// Required, non-empty.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 128).
	VNodes int
	// MaxInFlightPerBackend bounds concurrently proxied requests per
	// backend; a saturated primary sheds with 429 (default 4×GOMAXPROCS).
	MaxInFlightPerBackend int
	// RequestTimeout bounds one proxied request end to end, hedge included
	// (default 60s).
	RequestTimeout time.Duration
	// HedgeAfter is how long the primary may stall before the request is
	// hedged to the next replica on the ring (default 500ms).
	HedgeAfter time.Duration
	// HealthInterval is the /readyz polling period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// MaxBodyBytes bounds proxied request bodies (default 8 MiB).
	MaxBodyBytes int64
	// WarmApps optionally lists Table 3 instance names; when a backend
	// joins the ring, the gateway first replays an analysis of every
	// listed app that hashes to the joining backend, so the shard's cache
	// is hot before real traffic lands on it.
	WarmApps []string
	// WarmIterations is the generated-trace length of warming requests
	// (0 = the server default), and WarmQuick skips calibration during
	// warm-up generation. Both must mirror what real traffic will send for
	// the warmed entries to be the ones traffic hits.
	WarmIterations int
	WarmQuick      bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8700"
	}
	if c.VNodes == 0 {
		c.VNodes = 128
	}
	if c.MaxInFlightPerBackend == 0 {
		c.MaxInFlightPerBackend = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout == 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Gateway is the fleet front. Create it with New, start health checking
// with Start (or drive checks manually with CheckNow in tests), serve via
// Handler/Serve/ListenAndServe, and stop with Close/Shutdown.
type Gateway struct {
	cfg      Config
	reg      *metrics
	mux      *http.ServeMux
	http     *http.Server
	backends map[string]*backend
	order    []string // configured order, for deterministic iteration

	mu   sync.RWMutex
	ring *ring

	rr       atomic.Uint64 // round-robin cursor for keyless requests
	draining atomic.Bool
	stopOnce sync.Once
	stopped  chan struct{}
	loopDone chan struct{}
}

// New builds a Gateway over the configured backend pool. All backends
// start down; call Start (or CheckNow) to probe them into the ring.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	g := &Gateway{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		backends: make(map[string]*backend, len(cfg.Backends)),
		ring:     buildRing(nil, cfg.VNodes),
		stopped:  make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q is not an absolute URL", raw)
		}
		name := u.String()
		if _, dup := g.backends[name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %q", name)
		}
		g.backends[name] = newBackend(name, u, cfg)
		g.order = append(g.order, name)
	}
	g.reg = newMetrics(g.backends)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("/", g.handleProxy)
	g.http = &http.Server{Addr: cfg.Addr, Handler: g.mux}
	return g, nil
}

// Handler exposes the gateway's handler chain for httptest-based tests.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve accepts connections on ln until Shutdown.
func (g *Gateway) Serve(ln net.Listener) error { return g.http.Serve(ln) }

// ListenAndServe listens on the configured address until Shutdown.
func (g *Gateway) ListenAndServe() error { return g.http.ListenAndServe() }

// Shutdown stops health checking, marks the gateway draining (its own
// /readyz answers 503) and drains in-flight proxied requests.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.draining.Store(true)
	g.Close()
	return g.http.Shutdown(ctx)
}

// Close stops the health-check loop (idempotent). It does not touch the
// HTTP listener; use Shutdown for a full stop.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stopped) })
}

// gwError writes the gateway's error envelope. It reuses the daemon's
// envelope shape (error, stage, request_id) with stage "gateway", so a
// client sees one error grammar whether a failure originated in a backend
// pipeline stage or in the fleet front itself.
func (g *Gateway) gwError(w http.ResponseWriter, id string, status int, msg string) {
	w.Header().Set(server.RequestIDHeader, id)
	b, _ := json.Marshal(server.ErrorBody{
		Error:     msg,
		Stage:     string(stagerr.Gateway),
		RequestID: id,
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, server.HealthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(g.reg.start).Seconds(),
	})
}

// handleReadyz reports the gateway ready when it is not draining and at
// least one backend is in the ring: a gateway with an empty ring can only
// answer 502s, so upstream load balancers should route around it.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case g.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, server.ReadyBody{Status: "draining"})
	case len(g.currentRing().members) == 0:
		writeJSON(w, http.StatusServiceUnavailable, server.ReadyBody{Status: "no-ready-backends"})
	default:
		writeJSON(w, http.StatusOK, server.ReadyBody{Status: "ready"})
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.reg.Render(w)
}

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

// wireTraceRef is the subset of the daemon's TraceRef the gateway needs to
// shard on. Unknown body fields are ignored: the gateway keys requests, it
// does not validate them — validation stays the backend's job so gateway
// and direct responses cannot diverge.
type wireTraceRef struct {
	Text       string `json:"text"`
	App        string `json:"app"`
	NProcs     int    `json:"nprocs"`
	Iterations int    `json:"iterations"`
	Quick      bool   `json:"quick"`
}

// wireTraceBody matches any /v1/* request body far enough to find its
// trace reference(s).
type wireTraceBody struct {
	Trace  *wireTraceRef  `json:"trace"`
	Traces []wireTraceRef `json:"traces"`
}

// keyOf canonicalizes one trace reference into a shard key. It mirrors the
// backend's cache keying: generated workloads are memoized per
// (app, nprocs, iterations, quick) with iterations normalized to the
// workload default, so two requests that share a backend cache entry always
// share a shard key; inline text traces key on their content hash.
func keyOf(t wireTraceRef) string {
	if t.Text != "" {
		return fmt.Sprintf("text:%016x", hashKey(t.Text))
	}
	iters := t.Iterations
	if iters == 0 {
		iters = workload.DefaultConfig().Iterations
	}
	return fmt.Sprintf("app:%s|n=%d|i=%d|q=%t", t.App, t.NProcs, iters, t.Quick)
}

// shardKey extracts the consistent-hash key of a request, or "" when the
// request carries no trace reference (GET /v1/apps, malformed bodies —
// the backend will reject those identically wherever they land).
func shardKey(body []byte) string {
	if len(body) == 0 {
		return ""
	}
	var wb wireTraceBody
	if err := json.Unmarshal(body, &wb); err != nil {
		return ""
	}
	if wb.Trace != nil {
		return keyOf(*wb.Trace)
	}
	if len(wb.Traces) > 0 {
		// A multi-trace search (gearopt) shards on the joint key: the
		// whole workload list lands on one backend so its per-trace
		// replays share that backend's cache.
		key := "multi"
		for _, t := range wb.Traces {
			key += "+" + keyOf(t)
		}
		return key
	}
	return ""
}

// candidates resolves a shard key to the backends that may serve it, in
// preference order (primary, hedge replica). Keyless requests rotate over
// the ring members instead, since any backend can serve them.
func (g *Gateway) candidates(key string, n int) []*backend {
	r := g.currentRing()
	if len(r.members) == 0 {
		return nil
	}
	var names []string
	if key == "" {
		start := int(g.rr.Add(1)-1) % len(r.members)
		for i := 0; i < n && i < len(r.members); i++ {
			names = append(names, r.members[(start+i)%len(r.members)])
		}
	} else {
		names = r.sequence(key, n)
	}
	out := make([]*backend, len(names))
	for i, name := range names {
		out[i] = g.backends[name]
	}
	return out
}

// bufferedResp is one backend attempt's fully-read response. Buffering
// whole responses is what makes hedging race-free: the winner is written
// to the client in one piece, the loser is discarded untouched.
type bufferedResp struct {
	status int
	header http.Header
	body   []byte
}

// forward sends one attempt to backend b and reads the full response. uri
// is the inbound request's RequestURI (path + raw query), appended to the
// backend base verbatim so the backend sees exactly what the client sent.
func (g *Gateway) forward(ctx context.Context, b *backend, method, uri string, header http.Header, body []byte) (*bufferedResp, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(b.base.String(), "/")+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", server.RequestIDHeader} {
		if v := header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &bufferedResp{status: resp.StatusCode, header: resp.Header, body: rb}, nil
}

// hopByHop are the connection-level headers a proxy must not forward.
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

// writeResp relays a buffered backend response verbatim: status, headers
// (minus hop-by-hop) and the exact body bytes — the byte-identity contract.
func writeResp(w http.ResponseWriter, resp *bufferedResp) {
	for k, vs := range resp.header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// attemptOut is one backend attempt's outcome.
type attemptOut struct {
	b     *backend
	hedge bool
	resp  *bufferedResp
	err   error
}

// handleProxy is the catch-all route: shard, forward, hedge, shed.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := r.URL.Path
	defer func() { g.reg.observe(route, time.Since(start)) }()

	id := obs.RequestID(r.Header.Get(server.RequestIDHeader))
	r.Header.Set(server.RequestIDHeader, id)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.gwError(w, id, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body: %v", err))
		return
	}

	cands := g.candidates(shardKey(body), 2)
	if len(cands) == 0 {
		g.reg.noBackend.Add("", 1)
		g.gwError(w, id, http.StatusBadGateway, "no ready backends")
		return
	}
	primary := cands[0]
	if !primary.tryAcquire() {
		// The shard's backend is saturated. Shedding here (rather than
		// spilling to the next replica) keeps the key's cache locality
		// intact and surfaces overload to the client immediately.
		g.reg.shed.Add("", 1)
		w.Header().Set("Retry-After", "1")
		g.gwError(w, id, http.StatusTooManyRequests,
			fmt.Sprintf("shard backend at capacity (%d in flight)", cap(primary.sem)))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	results := make(chan attemptOut, 2)
	launch := func(b *backend, hedge bool) {
		g.reg.requests.Add(b.name, 1)
		if hedge {
			g.reg.hedges.Add(b.name, 1)
		}
		go func() {
			defer b.release()
			resp, err := g.forward(ctx, b, r.Method, r.URL.RequestURI(), r.Header, body)
			if err != nil {
				g.reg.errors.Add(b.name, 1)
			}
			results <- attemptOut{b: b, hedge: hedge, resp: resp, err: err}
		}()
	}
	var hedgeTo *backend
	if len(cands) > 1 {
		hedgeTo = cands[1]
	}
	outstanding := 0
	// tryHedge launches the one hedged retry if a distinct replica exists
	// and has a free slot.
	hedged := false
	tryHedge := func() {
		if hedged || hedgeTo == nil || !hedgeTo.tryAcquire() {
			return
		}
		hedged = true
		outstanding++
		launch(hedgeTo, true)
	}

	outstanding++
	launch(primary, false)
	hedgeTimer := time.NewTimer(g.cfg.HedgeAfter)
	defer hedgeTimer.Stop()
	var lastErr error
	for {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				// First completed HTTP response wins — including backend
				// error statuses, which are proxied verbatim: hedging
				// guards against dead/slow backends, never rewrites what
				// a live backend said.
				if out.hedge {
					g.reg.hedgeWins.Add(out.b.name, 1)
				}
				writeResp(w, out.resp)
				return
			}
			lastErr = out.err
			// Transport failure: hedge immediately rather than waiting
			// for the timer — the replica is the only way this request
			// can still succeed.
			tryHedge()
			if outstanding > 0 {
				continue
			}
			g.gwError(w, id, http.StatusBadGateway,
				fmt.Sprintf("all candidate backends failed: %v", lastErr))
			return
		case <-hedgeTimer.C:
			tryHedge()
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				g.reg.timeouts.Add("", 1)
				g.gwError(w, id, http.StatusGatewayTimeout, "no backend response in time")
			} else {
				g.gwError(w, id, 499, "client closed request")
			}
			return
		}
	}
}
