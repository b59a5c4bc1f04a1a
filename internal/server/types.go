package server

import (
	"context"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/gearopt"
	"repro/internal/powercap"
	"repro/internal/predict"
	"repro/internal/rebalance"
	"repro/internal/stagerr"
	"repro/internal/workload"
)

// Request-body limits; requests outside these ranges are rejected with 400
// rather than tying up a worker slot on a pathological simulation.
const (
	// MaxIterations bounds generated-workload length per request.
	MaxIterations = 500
	// MaxNProcs bounds interpolated-instance size per request.
	MaxNProcs = 2048
	// MaxCells bounds nprocs × iterations of one generated workload, so a
	// single request cannot demand an arbitrarily large trace.
	MaxCells = 200_000
	// MaxGears bounds the searched/constructed gear-set size.
	MaxGears = 64
	// MaxGearOptTraces bounds the workload list of one gear-set search.
	MaxGearOptTraces = 16
	// MaxBatchItems bounds the gear assignments of one batched analysis.
	// The batch endpoint retimes all items in one struct-of-arrays skeleton
	// walk (dimemas.RetimeBatch), so a large batch costs little more per
	// item than a small one.
	MaxBatchItems = 1024
	// MaxPowercapMoves bounds the refinement budget of one power-cap
	// scheduling request.
	MaxPowercapMoves = 16384
	// MaxRebalanceIterations bounds the online iterations of one
	// closed-loop rebalancing request.
	MaxRebalanceIterations = 500
)

// TraceRef selects the trace a request operates on: either an inline trace
// in the text format, or a synthetic Table 3 workload generated (and
// memoized) server-side. Generated workloads share one trace instance per
// (app, nprocs, iterations, quick) tuple, which is what lets the shared
// replay cache turn repeated what-if queries on the same application into
// cache hits. Every request type carries exactly one TraceRef (gearopt, a
// list), so trace selection is validated in one place.
type TraceRef struct {
	// Text is an inline trace in the native text format. Mutually exclusive
	// with App.
	Text string `json:"text,omitempty"`
	// App is a Table 3 instance name (e.g. "IS-64"), or an application name
	// (e.g. "CG") when NProcs is set.
	App string `json:"app,omitempty"`
	// NProcs selects an interpolated instance for App (e.g. CG at 256).
	NProcs int `json:"nprocs,omitempty"`
	// Iterations is the generated trace length (default 20, max 500).
	Iterations int `json:"iterations,omitempty"`
	// Quick skips parallel-efficiency calibration during generation.
	Quick bool `json:"quick,omitempty"`
}

func (s *TraceRef) validate() error {
	if (s.Text == "") == (s.App == "") {
		return stagerr.New(stagerr.Validate, "trace: exactly one of text or app is required")
	}
	if s.Text != "" && (s.NProcs != 0 || s.Iterations != 0 || s.Quick) {
		return stagerr.New(stagerr.Validate, "trace: nprocs/iterations/quick apply only to generated workloads")
	}
	if s.Iterations < 0 || s.Iterations > MaxIterations {
		return stagerr.Errorf(stagerr.Validate, "trace: iterations must be in [1, %d], got %d", MaxIterations, s.Iterations)
	}
	if s.NProcs < 0 || s.NProcs > MaxNProcs {
		return stagerr.Errorf(stagerr.Validate, "trace: nprocs must be in [2, %d], got %d", MaxNProcs, s.NProcs)
	}
	if s.NProcs > 0 {
		iters := s.Iterations
		if iters == 0 {
			iters = workload.DefaultConfig().Iterations
		}
		if s.NProcs*iters > MaxCells {
			return stagerr.Errorf(stagerr.Validate, "trace: nprocs × iterations = %d exceeds the per-request limit %d", s.NProcs*iters, MaxCells)
		}
	}
	return nil
}

// instance resolves the workload instance of a generated-trace spec. It
// does not check that an interpolated instance's loads can be shaped: that
// check runs only when the trace memo misses (traceResolve), so a memo hit
// costs no more than the lookup.
func (s *TraceRef) instance() (workload.Instance, error) {
	inst, err := workload.FindInstance(s.App)
	if s.NProcs > 0 {
		inst, err = workload.Interpolate(s.App, s.NProcs)
	}
	if err != nil {
		return inst, stagerr.Wrap(stagerr.Validate, err)
	}
	return inst, nil
}

// GearSpec holds the frequency-model parameters every simulation request
// shares: the memory-boundedness β and the nominal top frequency. Request
// types embed it, so its fields decode from the same top-level JSON keys
// ("beta", "fmax") clients have always sent — the redesign deduplicated the
// declarations and the validation, not the wire format.
type GearSpec struct {
	// Beta is the memory-boundedness parameter. Absent means the paper's
	// default 0.5; an explicit 0 requests a fully memory-bound run.
	Beta *float64 `json:"beta,omitempty"`
	// FMax is the nominal top frequency (default 2.3 GHz).
	FMax float64 `json:"fmax,omitempty"`
}

// validate is the wire's bounds check for the shared parameters and owns
// the wire error text; the pipelines resolve the defaults themselves
// (dimemas.ModelOptions), so handlers pass Beta and FMax through unchanged.
func (g *GearSpec) validate() error {
	if g.Beta != nil && (*g.Beta < 0 || *g.Beta > 1 || math.IsNaN(*g.Beta)) {
		return stagerr.Errorf(stagerr.Validate, "beta: must be in [0, 1], got %v", *g.Beta)
	}
	if g.FMax < 0 {
		return stagerr.Errorf(stagerr.Validate, "fmax: must be non-negative, got %v", g.FMax)
	}
	return nil
}

// options resolves the replay options with the same rule the analysis
// pipeline uses, so a bare replay request and an analyze request replay the
// identical baseline (and therefore share a cache entry).
func (g *GearSpec) options(ctx context.Context) (dimemas.Options, error) {
	if err := g.validate(); err != nil {
		return dimemas.Options{}, err
	}
	o, err := dimemas.ModelOptions(g.Beta, g.FMax)
	o.Ctx = ctx
	return o, err
}

// GearSetSpec describes a DVFS gear set in a request body.
type GearSetSpec struct {
	// Kind is one of "uniform", "exponential", "continuous-limited",
	// "continuous-unlimited" or "custom".
	Kind string `json:"kind"`
	// N is the gear count for uniform/exponential kinds (default 6).
	N int `json:"n,omitempty"`
	// Freqs lists the gear frequencies (GHz) of a custom set.
	Freqs []float64 `json:"freqs,omitempty"`
	// Overclock appends the paper's extra (2.6 GHz, 1.6 V) gear, as used by
	// the AVG studies.
	Overclock bool `json:"overclock,omitempty"`
}

// set builds the dvfs.Set the spec describes.
func (g *GearSetSpec) set() (*dvfs.Set, error) {
	n := g.N
	if n == 0 {
		n = 6
	}
	if n < 2 || n > MaxGears {
		return nil, stagerr.Errorf(stagerr.Validate, "gear_set: n must be in [2, %d], got %d", MaxGears, g.N)
	}
	var (
		set *dvfs.Set
		err error
	)
	switch strings.ToLower(g.Kind) {
	case "uniform", "":
		set, err = dvfs.Uniform(n)
	case "exponential":
		set, err = dvfs.Exponential(n)
	case "continuous-limited":
		set = dvfs.ContinuousLimited()
	case "continuous-unlimited":
		set = dvfs.ContinuousUnlimited()
	case "custom":
		if len(g.Freqs) < 2 || len(g.Freqs) > MaxGears {
			return nil, stagerr.Errorf(stagerr.Validate, "gear_set: custom set needs 2..%d freqs, got %d", MaxGears, len(g.Freqs))
		}
		gears := make([]dvfs.Gear, len(g.Freqs))
		for i, f := range g.Freqs {
			if f <= 0 {
				return nil, stagerr.Errorf(stagerr.Validate, "gear_set: non-positive frequency %v", f)
			}
			gears[i] = dvfs.GearAt(f)
		}
		set, err = dvfs.FromGears("custom", gears)
	default:
		return nil, stagerr.Errorf(stagerr.Validate, "gear_set: unknown kind %q", g.Kind)
	}
	if err != nil {
		return nil, stagerr.Errorf(stagerr.Validate, "gear_set: %w", err)
	}
	if g.Overclock {
		set, err = set.WithOverclockGear(dvfs.Gear{Freq: dvfs.OverclockFreq, Volt: dvfs.OverclockVolt})
		if err != nil {
			return nil, stagerr.Errorf(stagerr.Validate, "gear_set: %w", err)
		}
	}
	return set, nil
}

// parseAlgorithm maps the wire name onto the balancing policy.
func parseAlgorithm(s string) (core.Algorithm, error) {
	switch strings.ToUpper(s) {
	case "MAX", "":
		return core.MAX, nil
	case "AVG":
		return core.AVG, nil
	default:
		return 0, stagerr.Errorf(stagerr.Validate, "algorithm: unknown %q (want MAX or AVG)", s)
	}
}

// ReplayRequest is the body of POST /v1/replay.
type ReplayRequest struct {
	Trace TraceRef `json:"trace"`
	// Freqs is the per-rank frequency (GHz); empty means every rank at FMax
	// (the memoized baseline replay).
	Freqs []float64 `json:"freqs,omitempty"`
	// Platform optionally overrides the daemon's machine model for this
	// request (flat scalars, topology, per-rank capability).
	Platform *PlatformSpec `json:"platform,omitempty"`
	GearSpec
}

// ReplayResponse is the body of a successful POST /v1/replay.
type ReplayResponse struct {
	App     string    `json:"app"`
	Ranks   int       `json:"ranks"`
	Time    float64   `json:"time"`
	Compute []float64 `json:"compute"`
	Finish  []float64 `json:"finish"`
}

// NewReplayResponse builds the wire form of a replay result. It is exported
// so tests can prove server responses byte-identical to direct library
// calls.
func NewReplayResponse(app string, res *dimemas.Result) *ReplayResponse {
	return &ReplayResponse{
		App:     app,
		Ranks:   len(res.Compute),
		Time:    res.Time,
		Compute: res.Compute,
		Finish:  res.Finish,
	}
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Trace TraceRef `json:"trace"`
	// Algorithm selects the balancing policy: "MAX" (default) or "AVG".
	Algorithm string      `json:"algorithm,omitempty"`
	GearSet   GearSetSpec `json:"gear_set"`
	// Platform optionally overrides the daemon's machine model for this
	// request.
	Platform *PlatformSpec `json:"platform,omitempty"`
	GearSpec
}

// RunStatsBody is one simulated execution's cost on the wire.
type RunStatsBody struct {
	Time           float64 `json:"time"`
	Energy         float64 `json:"energy"`
	DynamicCompute float64 `json:"dynamic_compute"`
	DynamicComm    float64 `json:"dynamic_comm"`
	Static         float64 `json:"static"`
}

// NormBody holds energy/time/EDP normalized to the original run.
type NormBody struct {
	Energy float64 `json:"energy"`
	Time   float64 `json:"time"`
	EDP    float64 `json:"edp"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	App         string       `json:"app"`
	Algorithm   string       `json:"algorithm"`
	GearSet     string       `json:"gear_set"`
	Freqs       []float64    `json:"freqs"`
	Target      float64      `json:"target"`
	Overclocked int          `json:"overclocked"`
	Orig        RunStatsBody `json:"orig"`
	New         RunStatsBody `json:"new"`
	Norm        NormBody     `json:"norm"`
	LB          float64      `json:"lb"`
	PE          float64      `json:"pe"`
}

// NewAnalyzeResponse builds the wire form of an analysis result.
func NewAnalyzeResponse(setName string, res *analysis.Result) *AnalyzeResponse {
	stats := func(r analysis.RunStats) RunStatsBody {
		return RunStatsBody{
			Time:           r.Time,
			Energy:         r.Energy,
			DynamicCompute: r.Breakdown.DynamicCompute,
			DynamicComm:    r.Breakdown.DynamicComm,
			Static:         r.Breakdown.Static,
		}
	}
	return &AnalyzeResponse{
		App:         res.App,
		Algorithm:   res.Assignment.Algorithm.String(),
		GearSet:     setName,
		Freqs:       res.Assignment.Freqs(),
		Target:      res.Assignment.Target,
		Overclocked: res.Assignment.Overclocked,
		Orig:        stats(res.Orig),
		New:         stats(res.New),
		Norm:        NormBody{Energy: res.Norm.Energy, Time: res.Norm.Time, EDP: res.Norm.EDP},
		LB:          res.LB,
		PE:          res.PE,
	}
}

// AnalyzeBatchItem is one gear assignment of a batched analysis: an
// algorithm/gear-set combination evaluated against the shared trace.
type AnalyzeBatchItem struct {
	// Algorithm selects the balancing policy: "MAX" (default) or "AVG".
	Algorithm string      `json:"algorithm,omitempty"`
	GearSet   GearSetSpec `json:"gear_set"`
}

// AnalyzeBatchRequest is the body of POST /v1/analyze/batch: one trace,
// N gear assignments. The baseline replay and the timing skeleton are
// computed once; every item is then a cheap retiming off the shared
// skeleton, so asking 50 what-if questions costs barely more than asking
// one.
type AnalyzeBatchRequest struct {
	Trace TraceRef           `json:"trace"`
	Items []AnalyzeBatchItem `json:"items"`
	// Platform optionally overrides the daemon's machine model, shared by
	// every item (it parameterizes the skeleton the batch retimes).
	Platform *PlatformSpec `json:"platform,omitempty"`
	// The embedded β and FMax are shared by every item (they parameterize
	// the skeleton the batch retimes).
	GearSpec
}

// BatchItemError reports one failed item of a batched analysis: the
// request-items index it belongs to, the failure, and the pipeline stage
// the failure originated in (same taxonomy as ErrorBody.Stage).
type BatchItemError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
	Stage string `json:"stage"`
}

// AnalyzeBatchResponse is the body of a successful POST /v1/analyze/batch.
// Results are in request-item order; a failed item leaves a null at its
// index and adds an entry to Errors, so one bad item never sinks the other
// 1023. All-good batches serialize exactly as before the per-item error
// envelope existed (Errors is omitted when empty).
type AnalyzeBatchResponse struct {
	App     string             `json:"app"`
	Results []*AnalyzeResponse `json:"results"`
	Errors  []BatchItemError   `json:"errors,omitempty"`
}

// GearOptRequest is the body of POST /v1/gearopt.
type GearOptRequest struct {
	// Traces lists the applications the gear placement is optimized for.
	Traces []TraceRef `json:"traces"`
	// NGears is the searched set size (default 6).
	NGears int `json:"ngears,omitempty"`
	// Grid is the search lattice step in GHz (default 0.05).
	Grid float64 `json:"grid,omitempty"`
	// MaxRounds bounds the coordinate-descent rounds (default 8).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Platform optionally overrides the daemon's machine model for the
	// search (every trace is scored on the same machine).
	Platform *PlatformSpec `json:"platform,omitempty"`
	GearSpec
}

// GearOptResponse is the body of a successful POST /v1/gearopt.
type GearOptResponse struct {
	GearSet       string    `json:"gear_set"`
	Freqs         []float64 `json:"freqs"`
	SearchEnergy  float64   `json:"search_energy"`
	Energy        float64   `json:"energy"`
	UniformEnergy float64   `json:"uniform_energy"`
	Rounds        int       `json:"rounds"`
	Evaluations   int       `json:"evaluations"`
}

// NewGearOptResponse builds the wire form of a gear-search result.
func NewGearOptResponse(res *gearopt.Result) *GearOptResponse {
	freqs := make([]float64, 0, res.Set.Size())
	for _, g := range res.Set.Gears() {
		freqs = append(freqs, g.Freq)
	}
	return &GearOptResponse{
		GearSet:       res.Set.Name(),
		Freqs:         freqs,
		SearchEnergy:  res.SearchEnergy,
		Energy:        res.Energy,
		UniformEnergy: res.UniformEnergy,
		Rounds:        res.Rounds,
		Evaluations:   res.Evaluations,
	}
}

// AppBody is one Table 3 instance in GET /v1/apps.
type AppBody struct {
	Name   string  `json:"name"`
	App    string  `json:"app"`
	NProcs int     `json:"nprocs"`
	LB     float64 `json:"lb"`
	PE     float64 `json:"pe"`
}

// AppsResponse is the body of GET /v1/apps.
type AppsResponse struct {
	Apps []AppBody `json:"apps"`
}

// NewAppsResponse lists the Table 3 instances.
func NewAppsResponse() *AppsResponse {
	insts := workload.Table3()
	out := &AppsResponse{Apps: make([]AppBody, len(insts))}
	for i, inst := range insts {
		out.Apps[i] = AppBody{
			Name:   inst.Name,
			App:    inst.App,
			NProcs: inst.NProcs,
			LB:     inst.TargetLB,
			PE:     inst.TargetPE,
		}
	}
	return out
}

// TracegenRequest is the body of POST /v1/tracegen: a generated-workload
// TraceRef (inline text input is rejected — there is nothing to generate).
type TracegenRequest struct {
	Trace TraceRef `json:"trace"`
}

// TracegenResponse is the body of a successful POST /v1/tracegen.
type TracegenResponse struct {
	Name    string `json:"name"`
	Ranks   int    `json:"ranks"`
	Records int    `json:"records"`
	// Trace is the generated trace in the native text format.
	Trace string `json:"trace"`
}

// PowercapRequest is the body of POST /v1/powercap: schedule per-rank gears
// under a cluster power budget with both the uniform-downshift baseline and
// the load-aware redistribution policy.
type PowercapRequest struct {
	Trace TraceRef `json:"trace"`
	// GearSet must describe a discrete set (uniform/exponential/custom).
	GearSet GearSetSpec `json:"gear_set"`
	// Cap is the cluster power budget in model units (required, > 0).
	Cap float64 `json:"cap"`
	// Kind selects what the budget bounds: "peak" (default) or "average".
	Kind string `json:"kind,omitempty"`
	// MaxMoves bounds the redistribution refinement loop (default 4×ranks).
	MaxMoves int `json:"max_moves,omitempty"`
	// Platform optionally overrides the daemon's machine model for this
	// request (per-rank power scales tighten the cap feasibility check).
	Platform *PlatformSpec `json:"platform,omitempty"`
	GearSpec
}

// PowercapScheduleBody is one policy's schedule on the wire.
type PowercapScheduleBody struct {
	Policy         string    `json:"policy"`
	Freqs          []float64 `json:"freqs"`
	Time           float64   `json:"time"`
	Energy         float64   `json:"energy"`
	PeakPower      float64   `json:"peak_power"`
	AveragePower   float64   `json:"average_power"`
	OverCapSeconds float64   `json:"over_cap_seconds"`
	NormTime       float64   `json:"norm_time"`
	NormEnergy     float64   `json:"norm_energy"`
}

// PowercapRefBody is the uncapped reference execution on the wire.
type PowercapRefBody struct {
	Time         float64 `json:"time"`
	Energy       float64 `json:"energy"`
	PeakPower    float64 `json:"peak_power"`
	AveragePower float64 `json:"average_power"`
}

// PowercapResponse is the body of a successful POST /v1/powercap.
type PowercapResponse struct {
	App           string               `json:"app"`
	Cap           float64              `json:"cap"`
	Kind          string               `json:"kind"`
	Uncapped      PowercapRefBody      `json:"uncapped"`
	Uniform       PowercapScheduleBody `json:"uniform"`
	Redistributed PowercapScheduleBody `json:"redistributed"`
	Evaluations   int                  `json:"evaluations"`
}

// NewPowercapResponse builds the wire form of a power-cap scheduling result.
func NewPowercapResponse(res *powercap.Result) *PowercapResponse {
	sched := func(s powercap.Schedule) PowercapScheduleBody {
		return PowercapScheduleBody{
			Policy:         s.Policy.String(),
			Freqs:          s.Freqs(),
			Time:           s.Time,
			Energy:         s.Energy,
			PeakPower:      s.PeakPower,
			AveragePower:   s.AveragePower,
			OverCapSeconds: s.OverCapSeconds,
			NormTime:       s.NormTime,
			NormEnergy:     s.NormEnergy,
		}
	}
	return &PowercapResponse{
		App:  res.App,
		Cap:  res.Cap,
		Kind: res.Kind.String(),
		Uncapped: PowercapRefBody{
			Time:         res.Uncapped.Time,
			Energy:       res.Uncapped.Energy,
			PeakPower:    res.Uncapped.PeakPower,
			AveragePower: res.Uncapped.AveragePower,
		},
		Uniform:       sched(res.Uniform),
		Redistributed: sched(res.Redistributed),
		Evaluations:   res.Evaluations,
	}
}

// DriftSpec describes the load-drift model of a rebalancing request.
type DriftSpec struct {
	// Kind is one of "none" (default), "ramp", "walk" or "step".
	Kind string `json:"kind,omitempty"`
	// Magnitude is the drift strength (see workload.Drift).
	Magnitude float64 `json:"magnitude,omitempty"`
	// Jitter is the per-iteration multiplicative noise σ.
	Jitter float64 `json:"jitter,omitempty"`
	// StepAt is the first shifted iteration for the step kind (0 = mid-run).
	StepAt int `json:"step_at,omitempty"`
	// Seed makes the drift sequence deterministic (0 = fixed default).
	Seed int64 `json:"seed,omitempty"`
}

// drift builds the workload.Drift the spec describes.
func (d *DriftSpec) drift() (workload.Drift, error) {
	kind := workload.DriftNone
	if d.Kind != "" {
		var err error
		kind, err = workload.ParseDriftKind(strings.ToLower(d.Kind))
		if err != nil {
			return workload.Drift{}, stagerr.Errorf(stagerr.Validate, "drift: %w", err)
		}
	}
	out := workload.Drift{
		Kind:      kind,
		Magnitude: d.Magnitude,
		Jitter:    d.Jitter,
		StepAt:    d.StepAt,
		Seed:      d.Seed,
	}
	if err := out.Validate(); err != nil {
		return workload.Drift{}, stagerr.Wrap(stagerr.Validate, err)
	}
	return out, nil
}

// PredictSpec configures the predictive policies' per-rank load forecaster.
// Omitted fields inherit predict.DefaultConfig (linear model, 8-observation
// window, skill guard at 1.0).
type PredictSpec struct {
	// Kind is the model: "linear" (default) or "ewma".
	Kind string `json:"kind,omitempty"`
	// Window is the fit and skill-tracking window (observations, at most
	// MaxRebalanceIterations).
	Window int `json:"window,omitempty"`
	// Alpha is the EWMA smoothing factor in (0, 1].
	Alpha float64 `json:"alpha,omitempty"`
	// Guard is the fallback threshold (model error vs naive error);
	// negative disables the guard.
	Guard float64 `json:"guard,omitempty"`
}

// config builds the predict.Config the spec describes. A nil spec yields
// the zero config, which the rebalance loop resolves to the default for
// predictive policies (and requires for the reactive ones).
func (p *PredictSpec) config() (predict.Config, error) {
	if p == nil {
		return predict.Config{}, nil
	}
	cfg := predict.DefaultConfig()
	if p.Kind != "" {
		k, err := predict.ParseKind(strings.ToLower(p.Kind))
		if err != nil {
			return predict.Config{}, stagerr.Errorf(stagerr.Validate, "%w", err)
		}
		cfg.Kind = k
	}
	// The forecaster sizes its history by the window and takes one
	// observation per online iteration, so a window past the iteration
	// bound never fills; rejecting it here keeps a hostile window from
	// reaching that allocation.
	if p.Window > MaxRebalanceIterations {
		return predict.Config{}, stagerr.Errorf(stagerr.Validate, "predict: window must be at most %d (the iteration bound), got %d", MaxRebalanceIterations, p.Window)
	}
	if p.Window != 0 {
		cfg.Window = p.Window
	}
	if p.Alpha != 0 {
		cfg.Alpha = p.Alpha
	}
	if p.Guard != 0 {
		cfg.Guard = p.Guard
	}
	return cfg, nil
}

// RebalanceRequest is the body of POST /v1/rebalance: simulate an
// application over N online iterations with drifting per-rank load and a
// pluggable rebalancing policy (see internal/rebalance).
type RebalanceRequest struct {
	Trace TraceRef `json:"trace"`
	// GearSet must describe a discrete set for the capped policies.
	GearSet GearSetSpec `json:"gear_set"`
	// Algorithm selects the per-re-solve balancing rule: "MAX" (default)
	// or "AVG". Ignored by the capped policies.
	Algorithm string `json:"algorithm,omitempty"`
	// Policy is one of "never", "every-k", "threshold" (default),
	// "capped", "predictive" or "predictive-capped".
	Policy string `json:"policy,omitempty"`
	// Iterations is the number of online iterations (default 20, max 500).
	Iterations int `json:"iterations,omitempty"`
	// Period is the every-k policy's re-solve interval (default 1).
	Period int `json:"period,omitempty"`
	// Threshold and Hysteresis parameterize the degradation trigger.
	Threshold  float64 `json:"threshold,omitempty"`
	Hysteresis int     `json:"hysteresis,omitempty"`
	// Margin is the guard band left below the balancing target.
	Margin float64 `json:"margin,omitempty"`
	// Cap is the capped policy's peak cluster power budget (model watts).
	Cap float64 `json:"cap,omitempty"`
	// ReassignOverhead is the seconds charged to an iteration whose gears
	// changed.
	ReassignOverhead float64 `json:"reassign_overhead,omitempty"`
	// ExactPeaks reports exact per-iteration profile peaks instead of the
	// all-compute bound.
	ExactPeaks bool `json:"exact_peaks,omitempty"`
	// Predict configures the predictive policies' forecaster; must be
	// omitted for the reactive policies.
	Predict *PredictSpec `json:"predict,omitempty"`
	// Horizon is the number of iterations ahead a predictive re-solve
	// targets (default 3); predictive policies only.
	Horizon int `json:"horizon,omitempty"`
	// Drift describes how per-rank load evolves between iterations.
	Drift DriftSpec `json:"drift,omitempty"`
	// Platform optionally overrides the daemon's machine model for the
	// whole closed loop.
	Platform *PlatformSpec `json:"platform,omitempty"`
	GearSpec
}

// RebalanceIterationBody is one online iteration on the wire.
type RebalanceIterationBody struct {
	Time       float64 `json:"time"`
	Energy     float64 `json:"energy"`
	PeakPower  float64 `json:"peak_power"`
	LB         float64 `json:"lb"`
	Rebalanced bool    `json:"rebalanced,omitempty"`
}

// RebalanceResponse is the body of a successful POST /v1/rebalance.
type RebalanceResponse struct {
	App           string                   `json:"app"`
	Policy        string                   `json:"policy"`
	Iterations    []RebalanceIterationBody `json:"iterations"`
	TotalTime     float64                  `json:"total_time"`
	TotalEnergy   float64                  `json:"total_energy"`
	PeakPower     float64                  `json:"peak_power"`
	OrigTime      float64                  `json:"orig_time"`
	OrigEnergy    float64                  `json:"orig_energy"`
	Norm          NormBody                 `json:"norm"`
	Reassignments int                      `json:"reassignments"`
	GearSwitches  int                      `json:"gear_switches"`
	MeanLB        float64                  `json:"mean_lb"`
	MinLB         float64                  `json:"min_lb"`
	// Forecast reports the predictive policies' forecaster skill; omitted
	// for the reactive policies.
	Forecast   *ForecastBody `json:"forecast,omitempty"`
	FinalFreqs []float64     `json:"final_freqs"`
}

// ForecastBody is the forecaster-skill summary of a predictive run.
type ForecastBody struct {
	// Observations counts forecaster updates (one per iteration observed).
	Observations int `json:"observations"`
	// Fallbacks counts iterations answered with the last observation
	// because the skill guard was active.
	Fallbacks int `json:"fallbacks"`
	// Breaks counts structural-break resets of the fit.
	Breaks int `json:"breaks,omitempty"`
	// ModelErr and NaiveErr are the rolling window error sums of the model
	// and the naive last-observation predictor.
	ModelErr float64 `json:"model_err"`
	NaiveErr float64 `json:"naive_err"`
}

// NewRebalanceResponse builds the wire form of a closed-loop result.
func NewRebalanceResponse(res *rebalance.Result) *RebalanceResponse {
	out := &RebalanceResponse{
		App:           res.App,
		Policy:        res.Policy.String(),
		Iterations:    make([]RebalanceIterationBody, len(res.Iterations)),
		TotalTime:     res.TotalTime,
		TotalEnergy:   res.TotalEnergy,
		PeakPower:     res.PeakPower,
		OrigTime:      res.OrigTime,
		OrigEnergy:    res.OrigEnergy,
		Norm:          NormBody{Energy: res.Norm.Energy, Time: res.Norm.Time, EDP: res.Norm.EDP},
		Reassignments: res.Reassignments,
		GearSwitches:  res.GearSwitches,
		MeanLB:        res.MeanLB,
		MinLB:         res.MinLB,
		FinalFreqs:    make([]float64, len(res.FinalGears)),
	}
	for i, it := range res.Iterations {
		out.Iterations[i] = RebalanceIterationBody{
			Time:       it.Time,
			Energy:     it.Energy,
			PeakPower:  it.PeakPower,
			LB:         it.LB,
			Rebalanced: it.Rebalanced,
		}
	}
	for r, g := range res.FinalGears {
		out.FinalFreqs[r] = g.Freq
	}
	if res.Forecast != nil {
		out.Forecast = &ForecastBody{
			Observations: res.Forecast.Observations,
			Fallbacks:    res.Forecast.Fallbacks,
			Breaks:       res.Forecast.Breaks,
			ModelErr:     res.Forecast.ModelErr,
			NaiveErr:     res.Forecast.NaiveErr,
		}
	}
	return out
}

func errRebalanceIterations(got int) error {
	return stagerr.Errorf(stagerr.Validate, "iterations: must be in [0, %d] (0 means the default 20), got %d", MaxRebalanceIterations, got)
}

// parseCapKind maps the wire name onto the budget kind.
func parseCapKind(s string) (powercap.CapKind, error) {
	switch strings.ToLower(s) {
	case "peak", "":
		return powercap.CapPeak, nil
	case "average", "avg":
		return powercap.CapAverage, nil
	default:
		return 0, stagerr.Errorf(stagerr.Validate, "kind: unknown %q (want peak or average)", s)
	}
}

// ErrorBody is the JSON error envelope of every non-2xx response. Stage is
// the pipeline stage the failure originated in (internal/stagerr taxonomy:
// parse, validate, skeleton, retime, optimize, powercap, rebalance, cache,
// serve) and RequestID echoes the request's X-Request-ID (generated by the
// server when the client sent none), so one failed call can be correlated
// across client logs, server logs and /metrics.
type ErrorBody struct {
	Error     string `json:"error"`
	Stage     string `json:"stage"`
	RequestID string `json:"request_id"`
}

// errInlineTracegen rejects tracegen requests that carry an inline trace.
var errInlineTracegen = stagerr.New(stagerr.Validate, "tracegen: inline text traces have nothing to generate; pass app (+ nprocs)")

func errFreqCount(got, want int) error {
	return stagerr.Errorf(stagerr.Validate, "freqs: got %d frequencies for a %d-rank trace", got, want)
}

func errTraceCount(got int) error {
	return stagerr.Errorf(stagerr.Validate, "traces: need 1..%d workloads, got %d", MaxGearOptTraces, got)
}

func errGearCount(got int) error {
	return stagerr.Errorf(stagerr.Validate, "ngears: at most %d gears, got %d", MaxGears, got)
}

func errBatchCount(got int) error {
	return stagerr.Errorf(stagerr.Validate, "items: need 1..%d gear assignments, got %d", MaxBatchItems, got)
}

func errPowercapMoves(got int) error {
	return stagerr.Errorf(stagerr.Validate, "max_moves: must be in [0, %d], got %d", MaxPowercapMoves, got)
}
