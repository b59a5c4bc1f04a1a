package server

import (
	"time"

	"repro/internal/dimemas"
	"repro/internal/obs"
	"repro/internal/stagerr"
)

// metrics is the daemon's /metrics exposition: its families, declared in
// render order, over one obs.Registry.
type metrics struct {
	*obs.Registry
	start time.Time

	inFlight, rejected, timeouts, panics                *obs.Family
	requests, requestErrors, requestSeconds, requestMax *obs.Family
	stageErrors, stageSeconds, stageSpans               *obs.Family
}

// newMetrics declares the daemon's families. The replay cache's stats and
// the readiness gauge are read at scrape time.
func newMetrics(cache *dimemas.ReplayCache, ready func() bool) *metrics {
	r := &obs.Registry{}
	m := &metrics{Registry: r, start: time.Now()}
	// Stages render zero-filled over the full taxonomy (stagerr.Stages()
	// is in pipeline order), so scrapes are deterministic and dashboards
	// see every stage from the first scrape on.
	var stages []string
	for _, st := range stagerr.Stages() {
		stages = append(stages, string(st))
	}

	r.Gauge("pwrsimd_uptime_seconds", "Seconds since the server started.").Float().
		Reads(func(string) float64 { return time.Since(m.start).Seconds() })
	m.inFlight = r.Gauge("pwrsimd_in_flight", "Requests currently being served.")
	m.rejected = r.Counter("pwrsimd_rejected_total", "Requests rejected by the in-flight limit.")
	m.timeouts = r.Counter("pwrsimd_timeouts_total", "Requests aborted by the per-request timeout.")
	m.panics = r.Counter("pwrsimd_panics_total", "Panics contained by the lifecycle middleware or by a simulation route's work goroutine.")
	r.Gauge("pwrsimd_ready", "Readiness (1 = serving, 0 = starting or draining; see /readyz).").
		Reads(func(string) float64 { return obs.Bit(ready()) })

	r.Counter("pwrsimd_cache_hits_total", "Replay-cache hits.").
		Reads(func(string) float64 { return float64(cache.Stats().Hits) })
	r.Counter("pwrsimd_cache_misses_total", "Replay-cache misses.").
		Reads(func(string) float64 { return float64(cache.Stats().Misses) })
	r.Counter("pwrsimd_cache_evictions_total", "Replay-cache LRU evictions.").
		Reads(func(string) float64 { return float64(cache.Stats().Evictions) })
	r.Gauge("pwrsimd_cache_entries", "Replay-cache current entry count.").
		Reads(func(string) float64 { return float64(cache.Stats().Entries) })
	// The hit ratio is derivable from the counters, but exposing it as a
	// gauge lets the fleet scaling experiment (and dashboards) read each
	// shard's cache temperature without doing rate arithmetic.
	r.Gauge("pwrsimd_cache_hit_ratio", "Replay-cache hits over lookups since start (0 before the first lookup).").Float().
		Reads(func(string) float64 {
			c := cache.Stats()
			if lookups := c.Hits + c.Misses; lookups > 0 {
				return float64(c.Hits) / float64(lookups)
			}
			return 0
		})

	m.requests = r.Counter("pwrsimd_requests_total", "Finished requests by route.").Label("route", nil)
	m.requestErrors = r.Counter("pwrsimd_request_errors_total", "Non-2xx requests by route.").Label("route", nil)
	m.requestSeconds = r.Counter("pwrsimd_request_seconds_sum", "Summed request latency by route.").Float().Label("route", nil)
	m.requestMax = r.Gauge("pwrsimd_request_seconds_max", "Worst observed request latency by route.").Float().Label("route", nil)

	m.stageErrors = r.Counter("pwrsimd_stage_errors_total", "Error envelopes by originating pipeline stage.").Label("stage", stages)
	m.stageSeconds = r.Counter("pwrsimd_stage_seconds_sum", "Summed latency of timed pipeline-stage spans.").Float().Label("stage", stages)
	m.stageSpans = r.Counter("pwrsimd_stage_seconds_count", "Timed pipeline-stage spans.").Label("stage", stages)
	return m
}

// observe records one finished request on a route. isErr marks non-2xx
// outcomes.
func (m *metrics) observe(route string, d time.Duration, isErr bool) {
	m.requests.Add(route, 1)
	m.requestErrors.Add(route, obs.Bit(isErr))
	m.requestSeconds.Add(route, d.Seconds())
	m.requestMax.Max(route, d.Seconds())
}
