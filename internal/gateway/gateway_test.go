package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stagerr"
)

// newBackendServer boots a real pwrsimd handler on an httptest listener,
// marked ready so gateway health checks admit it.
func newBackendServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{RequestTimeout: 30 * time.Second})
	srv.MarkReady()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newGateway builds a gateway over the given backend URLs and runs one
// deterministic health round so ready backends are in the ring.
func newGateway(t *testing.T, cfg Config, urls ...string) *Gateway {
	t.Helper()
	cfg.Backends = urls
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	g.CheckNow(context.Background())
	return g
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

const analyzeBody = `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "gear_set": {"kind": "uniform"}}`

// The core contract: a response through the gateway is byte-identical to
// hitting a backend directly, across every proxied route shape (POST with
// a trace key, keyless GET).
func TestProxyByteIdentical(t *testing.T) {
	_, ts1 := newBackendServer(t)
	srv2, ts2 := newBackendServer(t)
	g := newGateway(t, Config{}, ts1.URL, ts2.URL)

	via := postJSON(t, g.Handler(), "/v1/analyze", analyzeBody)
	if via.Code != 200 {
		t.Fatalf("gateway analyze = %d: %s", via.Code, via.Body.String())
	}
	direct := postJSON(t, srv2.Handler(), "/v1/analyze", analyzeBody)
	if direct.Code != 200 {
		t.Fatalf("direct analyze = %d", direct.Code)
	}
	if !bytes.Equal(via.Body.Bytes(), direct.Body.Bytes()) {
		t.Fatalf("gateway response differs from direct:\n gateway: %s\n direct:  %s",
			via.Body.String(), direct.Body.String())
	}
	if ct := via.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("gateway dropped Content-Type, got %q", ct)
	}

	viaApps := httptest.NewRecorder()
	g.Handler().ServeHTTP(viaApps, httptest.NewRequest("GET", "/v1/apps", nil))
	directApps := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(directApps, httptest.NewRequest("GET", "/v1/apps", nil))
	if !bytes.Equal(viaApps.Body.Bytes(), directApps.Body.Bytes()) {
		t.Fatal("keyless GET /v1/apps differs via gateway")
	}
}

// Requests for one key must always land on the same backend — that is the
// whole point of the ring — while distinct keys spread across the fleet.
func TestConsistentRouting(t *testing.T) {
	_, ts1 := newBackendServer(t)
	_, ts2 := newBackendServer(t)
	g := newGateway(t, Config{}, ts1.URL, ts2.URL)

	for i := 0; i < 5; i++ {
		rec := postJSON(t, g.Handler(), "/v1/analyze", analyzeBody)
		if rec.Code != 200 {
			t.Fatalf("request %d = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	key := keyOf(wireTraceRef{App: "IS-32", Iterations: 3, Quick: true})
	owner := g.currentRing().owner(key)
	if got := g.reg.requests.Value(owner); got != 5 {
		t.Fatalf("owner %s served %g of 5 requests for its key", owner, got)
	}
	for _, name := range g.order {
		if got := g.reg.requests.Value(name); name != owner && got != 0 {
			t.Fatalf("non-owner %s saw %g requests for a key it does not own", name, got)
		}
	}
}

// stallUntilKilled is a fake backend that answers health checks but hangs
// /v1/* requests until the test kills it — the "backend killed mid-request"
// scenario. Killing closes all its connections, so the in-flight proxy
// attempt fails at the transport level.
func stallBackend(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ready"}`)
			return
		}
		<-block // hang until the backend is "killed"
	}))
	t.Cleanup(func() {
		unblock()
		ts.Close()
	})
	return ts, unblock
}

// findStallKey returns an analyze body whose shard primary is the stalling
// backend, so the request is forced onto the doomed instance and only the
// hedge can save it.
func findStallKey(t *testing.T, g *Gateway, stallURL string) string {
	t.Helper()
	for iters := 1; iters <= 64; iters++ {
		key := keyOf(wireTraceRef{App: "IS-32", Iterations: iters, Quick: true})
		seq := g.currentRing().sequence(key, 2)
		if len(seq) == 2 && seq[0] == stallURL {
			return fmt.Sprintf(`{"trace": {"app": "IS-32", "iterations": %d, "quick": true}, "gear_set": {"kind": "uniform"}}`, iters)
		}
	}
	t.Fatal("no key hashes to the stalling backend as primary")
	return ""
}

// A backend that dies mid-request: the hedged retry to the next ring
// replica wins, and the response is still byte-identical to a direct call.
func TestHedgeWinsWhenBackendKilledMidRequest(t *testing.T) {
	stall, kill := stallBackend(t)
	srv2, ts2 := newBackendServer(t)
	g := newGateway(t, Config{HedgeAfter: 25 * time.Millisecond, RequestTimeout: 30 * time.Second},
		stall.URL, ts2.URL)
	body := findStallKey(t, g, stall.URL)

	// Kill the stalled backend shortly after the request is in flight:
	// its connection drops mid-request, after the hedge timer has already
	// dispatched the retry to the healthy replica.
	go func() {
		time.Sleep(100 * time.Millisecond)
		kill()
		stall.CloseClientConnections()
	}()
	rec := postJSON(t, g.Handler(), "/v1/analyze", body)
	if rec.Code != 200 {
		t.Fatalf("hedged request = %d: %s", rec.Code, rec.Body.String())
	}
	direct := postJSON(t, srv2.Handler(), "/v1/analyze", body)
	if !bytes.Equal(rec.Body.Bytes(), direct.Body.Bytes()) {
		t.Fatal("hedged response differs from a direct backend call")
	}
	if g.reg.hedges.Value(ts2.URL) == 0 {
		t.Fatal("no hedge launched against the replica")
	}
	if g.reg.hedgeWins.Value(ts2.URL) == 0 {
		t.Fatal("hedge served the response but no hedge win was recorded")
	}
}

// A backend that is down before the request even starts: the transport
// error triggers an immediate hedge, well before the hedge timer.
func TestImmediateHedgeOnTransportError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ready"}`)
	}))
	srv2, ts2 := newBackendServer(t)
	// Long hedge timer: if the hedge only fired on the timer, this test
	// would time out — the immediate-on-error path must carry it.
	g := newGateway(t, Config{HedgeAfter: 10 * time.Second, RequestTimeout: 5 * time.Second},
		dead.URL, ts2.URL)
	body := findStallKey(t, g, dead.URL)
	dead.Close() // now every /v1/* attempt gets connection refused

	start := time.Now()
	rec := postJSON(t, g.Handler(), "/v1/analyze", body)
	if rec.Code != 200 {
		t.Fatalf("hedged request = %d: %s", rec.Code, rec.Body.String())
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("hedge took %v; the transport error should have hedged immediately", took)
	}
	direct := postJSON(t, srv2.Handler(), "/v1/analyze", body)
	if !bytes.Equal(rec.Body.Bytes(), direct.Body.Bytes()) {
		t.Fatal("hedged response differs from a direct backend call")
	}
}

// With every backend down, the gateway answers the fleet-level error: a
// 502 envelope in the daemon's error grammar with stage "gateway".
func TestAllBackendsDown(t *testing.T) {
	_, ts1 := newBackendServer(t)
	g := newGateway(t, Config{}, ts1.URL)
	ts1.Close()
	g.CheckNow(context.Background()) // observe the death

	rec := postJSON(t, g.Handler(), "/v1/analyze", analyzeBody)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all-down request = %d, want 502: %s", rec.Code, rec.Body.String())
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("502 body is not the error envelope: %s", rec.Body.String())
	}
	if eb.Stage != string(stagerr.Gateway) {
		t.Fatalf("502 stage = %q, want %q", eb.Stage, stagerr.Gateway)
	}
	if eb.RequestID == "" {
		t.Fatal("502 envelope carries no request_id")
	}
	if g.reg.noBackend.Value("") == 0 {
		t.Fatal("no_ready_backend counter did not move")
	}
	// The gateway's own readiness reflects the empty ring.
	rz := httptest.NewRecorder()
	g.Handler().ServeHTTP(rz, httptest.NewRequest("GET", "/readyz", nil))
	if rz.Code != http.StatusServiceUnavailable {
		t.Fatalf("gateway readyz with empty ring = %d, want 503", rz.Code)
	}
}

// A saturated shard sheds with 429 + Retry-After instead of queueing; the
// hedge replica is NOT borrowed for primary overload, so cache locality
// survives load spikes.
func TestShedWhenShardSaturated(t *testing.T) {
	inFirst := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ready"}`)
			return
		}
		once.Do(func() { close(inFirst) })
		<-release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer slow.Close()
	defer close(release)

	g := newGateway(t, Config{MaxInFlightPerBackend: 1, HedgeAfter: 10 * time.Second}, slow.URL)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postJSON(t, g.Handler(), "/v1/analyze", analyzeBody) }()
	<-inFirst // the single slot is now held

	rec := postJSON(t, g.Handler(), "/v1/analyze", analyzeBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated shard = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Stage != string(stagerr.Gateway) {
		t.Fatalf("shed envelope malformed: %s", rec.Body.String())
	}
	if g.reg.shed.Value("") == 0 {
		t.Fatal("shed counter did not move")
	}
}

// Ring redistribution after a backend leaves: the gateway's key-churn
// counter shows only ~1/N of the keyspace moved, and subsequent requests
// re-route without error.
func TestRebalanceAfterBackendLeaves(t *testing.T) {
	var backends []*httptest.Server
	var urls []string
	for i := 0; i < 4; i++ {
		_, ts := newBackendServer(t)
		backends = append(backends, ts)
		urls = append(urls, ts.URL)
	}
	g := newGateway(t, Config{}, urls...)
	if got := g.reg.rebalances.Value(""); got != 1 {
		t.Fatalf("initial probe produced %g rebalances, want 1", got)
	}

	backends[0].Close()
	g.CheckNow(context.Background())
	if got := g.reg.rebalances.Value(""); got != 2 {
		t.Fatalf("leave produced %g rebalances, want 2", got)
	}
	if frac := g.reg.lastChurn.Value(""); frac < 0.125 || frac > 0.45 {
		t.Fatalf("leave of 1-of-4 moved %.1f%% of keys, want ~25%% (consistent hashing, not rehash-everything)", 100*frac)
	}
	// Fleet still serves, whatever the key's old owner was.
	for iters := 1; iters <= 8; iters++ {
		body := fmt.Sprintf(`{"trace": {"app": "IS-32", "iterations": %d, "quick": true}, "gear_set": {"kind": "uniform"}}`, iters)
		if rec := postJSON(t, g.Handler(), "/v1/analyze", body); rec.Code != 200 {
			t.Fatalf("post-leave request (iters %d) = %d: %s", iters, rec.Code, rec.Body.String())
		}
	}
	// No probe key may still map to the dead backend.
	r := g.currentRing()
	for i := 0; i < 64; i++ {
		if owner := r.owner(fmt.Sprintf("probe/%d", i)); owner == urls[0] {
			t.Fatalf("key still owned by the departed backend %s", owner)
		}
	}
}

// A join with WarmApps configured pre-faults the joining backend's shard:
// by the time it takes traffic, its caches already hold the named apps,
// so the first real request is a hit.
func TestWarmOnJoin(t *testing.T) {
	srv, ts := newBackendServer(t)
	g := newGateway(t, Config{
		WarmApps:       []string{"IS-32", "IS-64"},
		WarmIterations: 2,
		WarmQuick:      true,
	}, ts.URL)

	if got := g.reg.warmups.Value(""); got != 2 {
		t.Fatalf("join issued %g warmups, want 2 (sole backend owns every app)", got)
	}
	if !g.backends[ts.URL].ready() {
		t.Fatal("backend not ready after warm-up")
	}
	stats := srv.Cache().Stats()
	if stats.Entries == 0 {
		t.Fatal("warming left the backend's replay cache empty")
	}
	misses := stats.Misses
	body := `{"trace": {"app": "IS-32", "iterations": 2, "quick": true}, "gear_set": {"kind": "uniform"}}`
	if rec := postJSON(t, g.Handler(), "/v1/analyze", body); rec.Code != 200 {
		t.Fatalf("post-warm request = %d", rec.Code)
	}
	if after := srv.Cache().Stats().Misses; after != misses {
		t.Fatalf("first real request missed the cache (%d → %d misses) despite warming", misses, after)
	}
}

// Gateway metrics render the full per-backend exposition.
func TestGatewayMetricsExposition(t *testing.T) {
	_, ts1 := newBackendServer(t)
	g := newGateway(t, Config{}, ts1.URL)
	postJSON(t, g.Handler(), "/v1/analyze", analyzeBody)

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, w := range []string{
		"pwrsimgw_backend_ready{backend=",
		"pwrsimgw_backend_requests_total{backend=",
		"pwrsimgw_backend_hedges_total{backend=",
		"pwrsimgw_ring_members 1",
		"pwrsimgw_ring_rebalance_total 1",
		"pwrsimgw_shed_total 0",
		"pwrsimgw_proxied_total{route=\"/v1/analyze\"} 1",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// Draining gateways stop advertising readiness but finish what they hold.
func TestGatewayShutdownMarksDraining(t *testing.T) {
	_, ts1 := newBackendServer(t)
	g := newGateway(t, Config{}, ts1.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining gateway readyz = %d %s", rec.Code, rec.Body.String())
	}
}

// Config validation rejects unusable pools.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty backend pool")
	}
	if _, err := New(Config{Backends: []string{"not a url"}}); err == nil {
		t.Fatal("New accepted a relative backend URL")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("New accepted duplicate backends")
	}
}

// The health loop runs autonomously once started.
func TestHealthLoopObservesJoin(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := newGateway(t, Config{HealthInterval: 10 * time.Millisecond}, ts.URL)
	g.Start()
	defer g.Close()
	if g.backends[ts.URL].ready() {
		t.Fatal("backend ready before it reported readiness")
	}
	srv.MarkReady()
	deadline := time.Now().Add(2 * time.Second)
	for !g.backends[ts.URL].ready() {
		if time.Now().After(deadline) {
			t.Fatal("health loop never observed the backend turning ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The gateway applies the daemon's request-ID policy: a hostile inbound ID
// is replaced by a fresh 16-hex-digit ID, a clean one is kept, and either
// way the backend sees the ID the client gets back.
func TestRequestIDPolicy(t *testing.T) {
	srv := server.New(server.Config{})
	srv.MarkReady()
	var mu sync.Mutex
	var seen string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			mu.Lock()
			seen = r.Header.Get(server.RequestIDHeader)
			mu.Unlock()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	g := newGateway(t, Config{}, ts.URL)

	fresh := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, tc := range []struct{ name, in string }{
		{"over 64 bytes", strings.Repeat("x", 65)},
		{"space", "two words"},
		{"newline", "id\nX-Injected: 1"},
		{"clean", "caller-42.retry_1"},
	} {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(analyzeBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.RequestIDHeader, tc.in)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		got := rec.Header().Get(server.RequestIDHeader)
		mu.Lock()
		atBackend := seen
		mu.Unlock()
		if atBackend != got {
			t.Errorf("%s: backend saw ID %q, client got %q", tc.name, atBackend, got)
		}
		if tc.name == "clean" {
			if got != tc.in {
				t.Errorf("clean ID %q not forwarded unchanged, got %q", tc.in, got)
			}
		} else if !fresh.MatchString(got) {
			t.Errorf("%s: hostile ID %q replaced by %q, want 16 hex digits", tc.name, tc.in, got)
		}
	}
}
