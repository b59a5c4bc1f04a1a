package server

import (
	"context"
	"net/http"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dimemas"
	"repro/internal/gearopt"
	"repro/internal/powercap"
	"repro/internal/rebalance"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// cacheFor returns the replay cache a request should thread through the
// pipeline. Inline text traces are parsed into a fresh *trace.Trace per
// request, so shared-cache entries keyed by them can never be hit again —
// they would only evict warm generated-workload entries from the bounded
// LRU. Such requests get the result of local() instead (a request-scoped
// cache when the handler itself re-evaluates the trace, built lazily so
// the common generated-workload path allocates nothing) or nil for
// one-shot pipelines.
func (s *Server) cacheFor(local func() *dimemas.ReplayCache, specs ...TraceRef) *dimemas.ReplayCache {
	for _, spec := range specs {
		if spec.Text != "" {
			if local == nil {
				return nil
			}
			return local()
		}
	}
	return s.cache
}

// HealthBody is the GET /healthz response. Platform echoes the flat machine
// constants the instance serves by default, so a fleet rollout of new link
// parameters is verifiable from the health check.
type HealthBody struct {
	Status        string       `json:"status"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Platform      PlatformBody `json:"platform"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(s.reg.start).Seconds(),
		Platform:      NewPlatformBody(s.platform),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Render(w)
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, NewAppsResponse())
}

func (s *Server) replay(ctx context.Context, req *ReplayRequest) (*ReplayResponse, error) {
	tr, err := s.traceFor(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	opts, err := req.options(ctx)
	if err != nil {
		return nil, err
	}
	if len(req.Freqs) > 0 {
		if len(req.Freqs) != tr.NumRanks() {
			return nil, errFreqCount(len(req.Freqs), tr.NumRanks())
		}
		opts.Freqs = req.Freqs
	}
	machine, err := req.Platform.machineFor(s.platform, tr.NumRanks())
	if err != nil {
		return nil, err
	}
	// Replay retimes explicit gear vectors off the memoized timing
	// skeleton (bit-identical to a fresh simulation) and memoizes the
	// baseline otherwise; a one-shot inline trace bypasses the cache
	// (nil degrades to a plain Simulate). The cache key carries the
	// machine fingerprint, so per-request platform overrides never
	// collide with the default-machine entries.
	res, err := span(s, stagerr.Retime, func() (*dimemas.Result, error) {
		return s.cacheFor(nil, req.Trace).ReplayMachine(tr, machine, opts)
	})
	if err != nil {
		return nil, err
	}
	return NewReplayResponse(tr.App, res), nil
}

func (s *Server) analyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	tr, err := s.traceFor(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, err
	}
	set, err := req.GearSet.set()
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	platform, machine, err := req.Platform.resolve(s.platform, tr.NumRanks())
	if err != nil {
		return nil, err
	}
	res, err := span(s, stagerr.Optimize, func() (*analysis.Result, error) {
		return analysis.Run(analysis.Config{
			Trace:     tr,
			Platform:  platform,
			Machine:   machine,
			Set:       set,
			Algorithm: algo,
			Beta:      req.Beta,
			FMax:      req.FMax,
			Cache:     s.cacheFor(nil, req.Trace),
			Ctx:       ctx,
		})
	})
	if err != nil {
		return nil, err
	}
	return NewAnalyzeResponse(set.Name(), res), nil
}

// analyzeBatch answers N what-if questions about one trace in a
// single request, backed by analysis.RunBatch: the baseline replay, the
// balance metrics and the timing skeleton are computed once, and every
// item's DVFS replay happens inside a single Skeleton.RetimeBatch walk.
// Item failures — a malformed gear set, an impossible assignment — land in
// the response's error envelope ({index, error, stage}) instead of failing
// the other items; only shared-stage failures (bad trace, bad β, baseline
// replay) fail the request.
func (s *Server) analyzeBatch(ctx context.Context, req *AnalyzeBatchRequest) (*AnalyzeBatchResponse, error) {
	if len(req.Items) == 0 || len(req.Items) > MaxBatchItems {
		return nil, errBatchCount(len(req.Items))
	}
	tr, err := s.traceFor(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	platform, machine, err := req.Platform.resolve(s.platform, tr.NumRanks())
	if err != nil {
		return nil, err
	}
	// Wire-level item parsing. Failures stay per-item; the survivors go
	// to RunBatch with their request indices remembered.
	itemErrs := make([]error, len(req.Items))
	names := make([]string, len(req.Items))
	batchItems := make([]analysis.BatchItem, 0, len(req.Items))
	live := make([]int, 0, len(req.Items))
	for i, item := range req.Items {
		algo, err := parseAlgorithm(item.Algorithm)
		if err != nil {
			itemErrs[i] = err
			continue
		}
		set, err := item.GearSet.set()
		if err != nil {
			itemErrs[i] = err
			continue
		}
		names[i] = set.Name()
		batchItems = append(batchItems, analysis.BatchItem{Set: set, Algorithm: algo})
		live = append(live, i)
	}

	out := &AnalyzeBatchResponse{App: tr.App, Results: make([]*AnalyzeResponse, len(req.Items))}
	if len(live) > 0 {
		type batchOut struct {
			results []*analysis.Result
			errs    []error
		}
		bo, err := span(s, stagerr.Optimize, func() (batchOut, error) {
			results, errs, err := analysis.RunBatch(analysis.Config{
				Trace:    tr,
				Platform: platform,
				Machine:  machine,
				Beta:     req.Beta,
				FMax:     req.FMax,
				// An inline trace still shares its baseline + skeleton
				// across the batch's items — through a request-local cache
				// rather than the daemon's LRU, whose entries it could
				// never hit again. (RunBatch builds its own private cache
				// when handed nil.)
				Cache: s.cacheFor(nil, req.Trace),
				Ctx:   ctx,
			}, batchItems)
			return batchOut{results, errs}, err
		})
		if err != nil {
			return nil, err
		}
		for k, i := range live {
			if bo.errs[k] != nil {
				itemErrs[i] = bo.errs[k]
				continue
			}
			out.Results[i] = NewAnalyzeResponse(names[i], bo.results[k])
		}
	}
	for i, e := range itemErrs {
		if e == nil {
			continue
		}
		stage := stagerr.Optimize
		if st, ok := stagerr.StageOf(e); ok {
			stage = st
		}
		out.Errors = append(out.Errors, BatchItemError{Index: i, Error: e.Error(), Stage: string(stage)})
	}
	return out, nil
}

func (s *Server) gearOpt(ctx context.Context, req *GearOptRequest) (*GearOptResponse, error) {
	if len(req.Traces) == 0 || len(req.Traces) > MaxGearOptTraces {
		return nil, errTraceCount(len(req.Traces))
	}
	traces := make([]*trace.Trace, len(req.Traces))
	for i, spec := range req.Traces {
		tr, err := s.traceFor(ctx, spec)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	ngears := req.NGears
	if ngears == 0 {
		ngears = 6
	}
	if ngears > MaxGears {
		return nil, errGearCount(ngears)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	platform, machine, err := req.Platform.resolve(s.platform, traces[0].NumRanks())
	if err != nil {
		return nil, err
	}
	res, err := span(s, stagerr.Optimize, func() (*gearopt.Result, error) {
		return gearopt.Optimize(gearopt.Config{
			Traces:    traces,
			NGears:    ngears,
			Platform:  platform,
			Machine:   machine,
			Beta:      req.Beta,
			FMax:      req.FMax,
			Grid:      req.Grid,
			MaxRounds: req.MaxRounds,
			// A search over any inline trace shares its replays within the
			// request only (request-local cache) — inline trace identities
			// never recur, so daemon-cache entries for them are dead weight.
			Cache: s.cacheFor(dimemas.NewReplayCache, req.Traces...),
			Ctx:   ctx,
		})
	})
	if err != nil {
		return nil, err
	}
	return NewGearOptResponse(res), nil
}

// powercap schedules gears under a cluster power budget. Candidate
// schedules are scored by retiming the shared timing skeleton, so repeated
// cap queries over the same workload (a client-side cap sweep) pay for the
// skeleton and the baseline exactly once.
func (s *Server) powercap(ctx context.Context, req *PowercapRequest) (*PowercapResponse, error) {
	kind, err := parseCapKind(req.Kind)
	if err != nil {
		return nil, err
	}
	if req.MaxMoves < 0 || req.MaxMoves > MaxPowercapMoves {
		return nil, errPowercapMoves(req.MaxMoves)
	}
	set, err := req.GearSet.set()
	if err != nil {
		return nil, err
	}
	tr, err := s.traceFor(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	platform, machine, err := req.Platform.resolve(s.platform, tr.NumRanks())
	if err != nil {
		return nil, err
	}
	res, err := span(s, stagerr.Powercap, func() (*powercap.Result, error) {
		return powercap.Run(powercap.Config{
			Trace:    tr,
			Platform: platform,
			Machine:  machine,
			Set:      set,
			Cap:      req.Cap,
			Kind:     kind,
			Beta:     req.Beta,
			FMax:     req.FMax,
			MaxMoves: req.MaxMoves,
			// Inline traces share their skeleton within the request only;
			// generated workloads hit the daemon's LRU.
			Cache: s.cacheFor(dimemas.NewReplayCache, req.Trace),
			Ctx:   ctx,
		})
	})
	if err != nil {
		return nil, err
	}
	return NewPowercapResponse(res), nil
}

// rebalance simulates the online closed loop: N drifting iterations
// replayed off one memoized base-iteration skeleton, with the requested
// rebalancing policy deciding when to re-solve gears. The request context is
// polled every iteration, so a timed-out request stops mid-loop and frees
// its in-flight slot promptly.
func (s *Server) rebalance(ctx context.Context, req *RebalanceRequest) (*RebalanceResponse, error) {
	if req.Iterations < 0 || req.Iterations > MaxRebalanceIterations {
		return nil, errRebalanceIterations(req.Iterations)
	}
	policy := rebalance.PolicyThreshold
	if req.Policy != "" {
		var err error
		policy, err = rebalance.ParsePolicy(strings.ToLower(req.Policy))
		if err != nil {
			return nil, err
		}
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, err
	}
	set, err := req.GearSet.set()
	if err != nil {
		return nil, err
	}
	drift, err := req.Drift.drift()
	if err != nil {
		return nil, err
	}
	pcfg, err := req.Predict.config()
	if err != nil {
		return nil, err
	}
	tr, err := s.traceFor(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	platform, machine, err := req.Platform.resolve(s.platform, tr.NumRanks())
	if err != nil {
		return nil, err
	}
	res, err := span(s, stagerr.Rebalance, func() (*rebalance.Result, error) {
		return rebalance.Run(rebalance.Config{
			Trace:            tr,
			Platform:         platform,
			Machine:          machine,
			Set:              set,
			Algorithm:        algo,
			Beta:             req.Beta,
			FMax:             req.FMax,
			Iterations:       req.Iterations,
			Drift:            drift,
			Policy:           policy,
			Period:           req.Period,
			Threshold:        req.Threshold,
			Hysteresis:       req.Hysteresis,
			Predict:          pcfg,
			Horizon:          req.Horizon,
			Margin:           req.Margin,
			Cap:              req.Cap,
			ReassignOverhead: req.ReassignOverhead,
			ExactPeaks:       req.ExactPeaks,
			// Inline traces share their base-iteration skeleton within the
			// request only; generated workloads hit the daemon's LRU.
			Cache: s.cacheFor(dimemas.NewReplayCache, req.Trace),
			Ctx:   ctx,
		})
	})
	if err != nil {
		return nil, err
	}
	return NewRebalanceResponse(res), nil
}

func (s *Server) tracegen(ctx context.Context, req *TracegenRequest) (*TracegenResponse, error) {
	if req.Trace.Text != "" {
		return nil, errInlineTracegen
	}
	tr, err := s.traceFor(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		return nil, err
	}
	return &TracegenResponse{
		Name:    tr.App,
		Ranks:   tr.NumRanks(),
		Records: tr.NumRecords(),
		Trace:   sb.String(),
	}, nil
}
