package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Backend lifecycle states. A backend enters the ring only in the ready
// state; warming is the optional join transition during which the gateway
// pre-faults the shard's named apps into the backend's caches.
const (
	backendDown int32 = iota
	backendWarming
	backendReady
)

// backend is one pwrsimd instance in the pool: its connection pool, its
// bounded in-flight semaphore and its health state.
type backend struct {
	name   string // canonical URL string; ring member id and metric label
	base   *url.URL
	client *http.Client
	sem    chan struct{}
	state  atomic.Int32
}

func newBackend(name string, base *url.URL, cfg Config) *backend {
	return &backend{
		name: name,
		base: base,
		// A dedicated transport per backend keeps connection pools
		// isolated: one slow backend cannot starve another's keep-alive
		// connections. Idle capacity matches the in-flight bound, so a
		// saturated-then-idle backend reuses every connection.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.MaxInFlightPerBackend,
			MaxIdleConnsPerHost: cfg.MaxInFlightPerBackend,
			IdleConnTimeout:     90 * time.Second,
		}},
		sem: make(chan struct{}, cfg.MaxInFlightPerBackend),
	}
}

// tryAcquire claims an in-flight slot without blocking.
func (b *backend) tryAcquire() bool {
	select {
	case b.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *backend) release() { <-b.sem }

func (b *backend) ready() bool { return b.state.Load() == backendReady }

// Start launches the background health-check loop: an immediate full probe
// (so a gateway that starts after its backends takes traffic right away),
// then one probe round per HealthInterval until Close/Shutdown.
func (g *Gateway) Start() {
	go func() {
		defer close(g.loopDone)
		ctx := context.Background()
		g.CheckNow(ctx)
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stopped:
				return
			case <-t.C:
				g.CheckNow(ctx)
			}
		}
	}()
}

// CheckNow probes every backend's /readyz once, runs join/leave
// transitions (including optional cache warming) and rebuilds the ring on
// membership changes. It is the health loop's body, exported so tests and
// the CLI can drive deterministic probe rounds.
func (g *Gateway) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, name := range g.order {
		b := g.backends[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.checkOne(ctx, b)
		}()
	}
	wg.Wait()
	g.rebuildRing()
}

// probeReady asks one backend's /readyz; only a 200 within HealthTimeout
// counts. A 503 — starting or draining — and a transport error are the
// same signal to the pool: stop routing there.
func (g *Gateway) probeReady(ctx context.Context, b *backend) bool {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", b.base.JoinPath("/readyz").String(), nil)
	if err != nil {
		return false
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// checkOne runs one backend's state transition.
func (g *Gateway) checkOne(ctx context.Context, b *backend) {
	up := g.probeReady(ctx, b)
	switch {
	case up && b.state.Load() == backendDown:
		// Join. Optionally warm the shard's apps before taking traffic,
		// so the first real request on every warmed key is already a
		// cache hit.
		if len(g.cfg.WarmApps) > 0 {
			b.state.Store(backendWarming)
			g.warm(ctx, b)
		}
		b.state.Store(backendReady)
	case !up:
		b.state.Store(backendDown)
	}
}

// warm pre-faults the joining backend's shard: every configured app whose
// key would hash to this backend — in the ring as it will look after the
// join — gets one analysis request, which fills the backend's generated-
// trace memo, baseline replay and timing skeleton for that key. Warming is
// best-effort: a failed warm-up never blocks the join.
func (g *Gateway) warm(ctx context.Context, b *backend) {
	// The prospective ring: every currently-ready backend plus the joiner.
	members := []string{b.name}
	for _, name := range g.order {
		if o := g.backends[name]; o != b && o.ready() {
			members = append(members, name)
		}
	}
	prospective := buildRing(members, g.cfg.VNodes)
	for _, app := range g.cfg.WarmApps {
		ref := wireTraceRef{App: app, Iterations: g.cfg.WarmIterations, Quick: g.cfg.WarmQuick}
		if prospective.owner(keyOf(ref)) != b.name {
			continue
		}
		body, err := json.Marshal(map[string]any{
			"trace": map[string]any{
				"app":        app,
				"iterations": g.cfg.WarmIterations,
				"quick":      g.cfg.WarmQuick,
			},
			"gear_set": map[string]any{"kind": "uniform"},
		})
		if err != nil {
			continue
		}
		g.reg.warmups.Add("", 1)
		wctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
		req, err := http.NewRequestWithContext(wctx, "POST",
			b.base.JoinPath("/v1/analyze").String(), bytes.NewReader(body))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := b.client.Do(req); err == nil {
			resp.Body.Close()
		}
		cancel()
	}
}

// currentRing snapshots the ring for lock-free routing.
func (g *Gateway) currentRing() *ring {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring
}

// rebuildRing swaps in a ring over the currently-ready backends if the
// membership changed, recording the rebalance and its keyspace churn.
func (g *Gateway) rebuildRing() {
	var members []string
	for _, name := range g.order {
		if g.backends[name].ready() {
			members = append(members, name)
		}
	}
	g.mu.Lock()
	old := g.ring
	if sameMembers(old.members, members) {
		g.mu.Unlock()
		return
	}
	next := buildRing(members, g.cfg.VNodes)
	g.ring = next
	g.mu.Unlock()
	moved, fraction := churn(old, next)
	g.reg.rebalances.Add("", 1)
	g.reg.keysMoved.Add("", float64(moved))
	g.reg.lastChurn.Set("", fraction)
}

// sameMembers compares a sorted member list against an unsorted candidate
// set of the same semantics.
func sameMembers(sorted, unsorted []string) bool {
	if len(sorted) != len(unsorted) {
		return false
	}
	seen := make(map[string]bool, len(sorted))
	for _, m := range sorted {
		seen[m] = true
	}
	for _, m := range unsorted {
		if !seen[m] {
			return false
		}
	}
	return true
}

// String describes the pool for logs: "2/4 ready".
func (g *Gateway) String() string {
	ready := 0
	for _, b := range g.backends {
		if b.ready() {
			ready++
		}
	}
	return fmt.Sprintf("%d/%d backends ready", ready, len(g.backends))
}
