package gateway

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/obs"
)

// metrics is the gateway's /metrics exposition: its families, declared in
// render order, over one obs.Registry.
type metrics struct {
	*obs.Registry
	start time.Time

	requests, errors, hedges, hedgeWins *obs.Family
	shed, noBackend, timeouts, warmups  *obs.Family
	rebalances, keysMoved, lastChurn    *obs.Family
	proxied, proxySeconds, proxyMax     *obs.Family
}

// newMetrics declares the gateway's families. Backends render zero-filled
// over the full configured pool, sorted, with readiness read at scrape
// time, so every backend appears from the first scrape on and `up` flips
// are visible as gauge transitions, not series births.
func newMetrics(backends map[string]*backend) *metrics {
	r := &obs.Registry{}
	m := &metrics{Registry: r, start: time.Now()}
	names := slices.Sorted(maps.Keys(backends))
	ready := func(name string) float64 { return obs.Bit(backends[name].ready()) }

	r.Gauge("pwrsimgw_uptime_seconds", "Seconds since the gateway started.").Float().
		Reads(func(string) float64 { return time.Since(m.start).Seconds() })
	r.Gauge("pwrsimgw_backend_ready", "Backend readiness (1 = in the ring).").Label("backend", names).Reads(ready)
	r.Gauge("pwrsimgw_ring_members", "Backends currently in the hash ring.").
		Reads(func(string) float64 {
			n := 0.0
			for _, name := range names {
				n += ready(name)
			}
			return n
		})

	m.requests = r.Counter("pwrsimgw_backend_requests_total", "Proxy attempts by backend.").Label("backend", names)
	m.errors = r.Counter("pwrsimgw_backend_errors_total", "Transport failures by backend.").Label("backend", names)
	m.hedges = r.Counter("pwrsimgw_backend_hedges_total", "Hedged attempts launched by backend.").Label("backend", names)
	m.hedgeWins = r.Counter("pwrsimgw_backend_hedge_wins_total", "Hedged attempts whose response was served.").Label("backend", names)

	m.shed = r.Counter("pwrsimgw_shed_total", "Requests shed (429) because the shard's backend was saturated.")
	m.noBackend = r.Counter("pwrsimgw_no_ready_backend_total", "Requests failed (502) with no ready backend.")
	m.timeouts = r.Counter("pwrsimgw_timeouts_total", "Requests failed (504) with no backend response in time.")
	m.warmups = r.Counter("pwrsimgw_warmups_total", "Cache-warming requests issued on backend joins.")

	m.rebalances = r.Counter("pwrsimgw_ring_rebalance_total", "Hash-ring rebuilds caused by membership changes.")
	m.keysMoved = r.Counter("pwrsimgw_ring_keys_moved_total",
		fmt.Sprintf("Probe keys (of %d) that changed owner, summed over rebuilds.", churnProbes))
	m.lastChurn = r.Gauge("pwrsimgw_ring_last_churn_ratio", "Keyspace fraction moved by the most recent rebuild.").Float()

	m.proxied = r.Counter("pwrsimgw_proxied_total", "Proxied requests by route.").Label("route", nil)
	m.proxySeconds = r.Counter("pwrsimgw_proxy_seconds_sum", "Summed gateway-side latency by route.").Float().Label("route", nil)
	m.proxyMax = r.Gauge("pwrsimgw_proxy_seconds_max", "Worst gateway-side latency by route.").Float().Label("route", nil)
	return m
}

// observe records one finished proxied request on a route.
func (m *metrics) observe(route string, d time.Duration) {
	m.proxied.Add(route, 1)
	m.proxySeconds.Add(route, d.Seconds())
	m.proxyMax.Max(route, d.Seconds())
}
