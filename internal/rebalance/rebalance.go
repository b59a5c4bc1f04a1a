// Package rebalance closes the paper's loop online. The offline pipeline
// (internal/analysis) profiles one fixed trace and assigns DVFS gears once;
// real iterative MPI applications drift — per-rank load shifts between
// outer-loop iterations (adaptive meshes, particle migration, input-dependent
// physics) — so a profile-once assignment goes stale and a runtime system
// must decide *when* to re-solve. This package simulates that closed loop:
// an application iterates N times with per-rank load evolving under a
// workload.Drift model, the controller observes each executed iteration's
// per-rank computation times (the same information a real runtime gets from
// its timers), and a pluggable policy decides whether to re-assign gears for
// the next iteration.
//
// Policies:
//
//   - PolicyNever — profile the first iteration, assign once, never adapt:
//     the paper's static MAX/AVG baseline exposed to drift.
//   - PolicyEveryK — re-solve every Period iterations (Period 1 is the
//     "always" extreme), paying the re-assignment overhead each time the
//     gears actually change.
//   - PolicyThreshold — re-solve only when the executed run's compute
//     balance (eq. 4 over the observed per-rank computation times) has
//     degraded more than Threshold below the balance achieved right after
//     the last assignment, for Hysteresis consecutive iterations — drift
//     triggers it, transient jitter does not.
//   - PolicyCapped — the threshold trigger under a fixed cluster power
//     budget: every re-solve delegates to internal/powercap's load-aware
//     redistribution, and gear vectors always satisfy the peak cap (the
//     all-compute peak bound is load-independent, so the budget holds on
//     every iteration regardless of drift).
//   - PolicyPredictive — anticipate instead of react: a per-rank load
//     forecaster (internal/predict) extrapolates the observed loads one
//     iteration ahead, the trigger fires on the *predicted* balance of the
//     next iteration, and the re-solve targets the forecast load vector —
//     so the new assignment lands on the iteration the drift arrives, not
//     Hysteresis iterations after it has bitten. While the forecaster's
//     fallback guard is active (warm-up, or a series the model cannot beat
//     persistence on — a random walk), the policy degrades to exactly the
//     threshold trigger, so it never chases noise the reactive policy
//     would have ignored.
//   - PolicyPredictiveCapped — the predictive trigger under a fixed peak
//     power budget: every forecast-driven re-solve delegates to
//     internal/powercap's redistribution over the *forecast* loads,
//     shifting budget headroom toward the predicted critical rank (watts,
//     not just gears, move ahead of the drift).
//
// Every simulated iteration is exact: the base iteration's timing skeleton
// is recorded once (dimemas.ReplayCache.SkeletonForSlice) and each
// (gear vector, drift factors) combination is replayed with
// Skeleton.RetimeScaled — bit-identical to freshly simulating the drifted
// trace, which the tests and the comparison benchmark do as a cross-check,
// at a fraction of the cost. A capped re-solve schedules on that same
// recording (powercap.Reschedule) with the loads as per-rank scales, so a
// run records one skeleton however often it re-solves.
package rebalance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/powercap"
	"repro/internal/predict"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy selects the rebalancing trigger.
type Policy int

const (
	// PolicyNever assigns gears once from the first observed iteration.
	PolicyNever Policy = iota
	// PolicyEveryK re-solves every Period iterations.
	PolicyEveryK
	// PolicyThreshold re-solves when the observed compute balance degrades
	// past Threshold (with Hysteresis) relative to the balance right after
	// the last assignment.
	PolicyThreshold
	// PolicyCapped is PolicyThreshold under a peak cluster power budget,
	// delegating every assignment to internal/powercap.
	PolicyCapped
	// PolicyPredictive re-solves against the forecast load vector when the
	// predicted balance of the next iteration crosses the trigger.
	PolicyPredictive
	// PolicyPredictiveCapped is PolicyPredictive under a peak cluster power
	// budget: forecast-driven power redistribution via internal/powercap.
	PolicyPredictiveCapped

	// policyCount counts the variants; maxPolicy is the last valid one.
	// New policies must be added above policyCount so the parse and
	// validation ranges extend automatically instead of silently
	// truncating (the bug class a hand-written `p <= PolicyCapped` bound
	// reintroduces with every new variant).
	policyCount
	maxPolicy = policyCount - 1
)

func (p Policy) String() string {
	switch p {
	case PolicyNever:
		return "never"
	case PolicyEveryK:
		return "every-k"
	case PolicyThreshold:
		return "threshold"
	case PolicyCapped:
		return "capped"
	case PolicyPredictive:
		return "predictive"
	case PolicyPredictiveCapped:
		return "predictive-capped"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// capped reports whether the policy schedules under a power budget.
func (p Policy) capped() bool { return p == PolicyCapped || p == PolicyPredictiveCapped }

// predictive reports whether the policy triggers on forecast loads.
func (p Policy) predictive() bool { return p == PolicyPredictive || p == PolicyPredictiveCapped }

// PolicyNames lists every valid policy's wire name, in enum order.
func PolicyNames() []string {
	out := make([]string, 0, int(policyCount))
	for p := PolicyNever; p <= maxPolicy; p++ {
		out = append(out, p.String())
	}
	return out
}

// ParsePolicy is the inverse of Policy.String (for wire and CLI use).
func ParsePolicy(s string) (Policy, error) {
	for p := PolicyNever; p <= maxPolicy; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	names := PolicyNames()
	return 0, fmt.Errorf("rebalance: unknown policy %q (want %s or %s)",
		s, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}

// Config parameterizes one closed-loop rebalancing run.
type Config struct {
	// Trace is the application trace; its first iteration (up to the first
	// IterMark on every rank) is the structure every online iteration
	// replays, with loads scaled by the drift model.
	Trace *trace.Trace
	// Platform models the interconnect; zero value means DefaultPlatform.
	Platform dimemas.Platform
	// Machine optionally layers topology and per-rank capability on top of
	// Platform (nil means the flat homogeneous machine; a zero Base inherits
	// the Platform). The closed loop then replays on the layered
	// machine, re-solves honor per-rank frequency ceilings, the capped
	// policy schedules with per-rank power scales, and the energy/peak
	// accounting multiplies each rank's draw by Capability.PowerScale.
	Machine *dimemas.Machine
	// Power configures the CPU power model; zero value means the paper's
	// baseline.
	Power power.Config
	// Set is the available DVFS gear set. PolicyCapped requires a discrete
	// set (the power-cap scheduler sheds gears stepwise).
	Set *dvfs.Set
	// Algorithm selects the balancing rule used on each re-solve (MAX or
	// AVG); ignored by PolicyCapped, which schedules under the budget.
	Algorithm core.Algorithm
	// Beta is the memory-boundedness parameter; nil selects the paper's
	// default 0.5 (dimemas.ModelOptions).
	Beta *float64
	// FMax is the nominal top frequency (default dvfs.FMax when zero).
	FMax float64
	// Iterations is the number of online iterations to simulate (default
	// 20).
	Iterations int
	// Drift describes how per-rank load evolves between iterations; the
	// zero value keeps loads static.
	Drift workload.Drift
	// Policy selects the rebalancing trigger (default PolicyNever).
	Policy Policy
	// Period is PolicyEveryK's re-solve interval (default 1 — re-solve
	// after every iteration).
	Period int
	// Threshold is the balance-degradation trigger of
	// PolicyThreshold/PolicyCapped (default 0.05): re-solve once the
	// observed compute balance drops more than this below the level
	// established right after the previous assignment.
	Threshold float64
	// Hysteresis is the number of consecutive violating iterations
	// required before PolicyThreshold/PolicyCapped re-solves (default 2),
	// so one noisy iteration does not trigger a rebalance.
	Hysteresis int
	// Predict configures the per-rank load forecaster of the predictive
	// policies (the zero value selects predict.DefaultConfig). Must stay
	// zero for the reactive policies, which never forecast.
	Predict predict.Config
	// Horizon is the number of iterations ahead a predictive re-solve
	// targets (default 3). Balancing the forecast loads Horizon iterations
	// out makes the assignment slightly early on arrival, exact
	// mid-validity, and slightly stale near the end — halving the drift
	// error a land-exact assignment accumulates over its lifetime and
	// stretching the interval until the trigger fires again (fewer
	// re-solves, less overhead). The trigger itself always watches one
	// iteration ahead. Predictive policies only; must stay zero otherwise.
	Horizon int
	// Margin is the guard band left below the balancing target on every
	// re-solve (core.Balancer.Margin): gears are chosen so ranks finish in
	// (1−Margin)·target, absorbing iteration-to-iteration load noise that
	// would otherwise push a freshly stretched rank past the critical path.
	// Ignored by PolicyCapped (the budget, not a target, binds there).
	// Default 0 — the paper's offline assignment.
	Margin float64
	// Cap is PolicyCapped's peak cluster power budget in model units
	// (required, > 0, for that policy; must be zero otherwise).
	Cap float64
	// ReassignOverhead is the wall-clock cost in seconds charged to an
	// iteration whose gear vector changed (runtime coordination plus DVFS
	// transitions). Ranks idle at communication-phase power while it is
	// paid. Default 0.
	ReassignOverhead float64
	// ExactPeaks records per-iteration timelines and reports each
	// iteration's exact cluster power-profile peak. When false (default),
	// the reported peak is the all-ranks-computing upper bound — the
	// load-independent quantity a peak cap constrains — and the loop stays
	// allocation-free.
	ExactPeaks bool
	// Cache optionally memoizes the base-iteration skeleton (keyed by the
	// parent trace and iteration 0) so policy sweeps and repeated server
	// requests over the same trace record it once. Nil builds one
	// uncached skeleton per run.
	Cache *dimemas.ReplayCache
	// Ctx optionally bounds the run; it is polled every iteration and
	// threaded into the replays, so serving layers can stop paying for
	// requests that already timed out.
	Ctx context.Context
}

// IterationStats is one online iteration's measured outcome.
type IterationStats struct {
	// Time and Energy are the executed iteration's wall-clock time and CPU
	// energy (including the re-assignment overhead when Rebalanced).
	Time, Energy float64
	// PeakPower is the iteration's cluster power peak: the exact profile
	// peak under Config.ExactPeaks, the all-ranks-computing upper bound
	// otherwise.
	PeakPower float64
	// LB is the executed run's compute balance (eq. 4 over the observed
	// per-rank computation times) — the quantity the threshold trigger
	// watches.
	LB float64
	// Rebalanced marks iterations that started with a changed gear vector.
	Rebalanced bool
}

// Result reports one closed-loop run.
type Result struct {
	// App names the application trace.
	App string
	// Policy echoes the trigger that ran.
	Policy Policy
	// Iterations holds the per-iteration series.
	Iterations []IterationStats
	// TotalTime and TotalEnergy sum the series.
	TotalTime, TotalEnergy float64
	// PeakPower is the maximum per-iteration peak across the run.
	PeakPower float64
	// OrigTime and OrigEnergy are the all-ranks-at-FMax execution of the
	// same drifted iterations (no DVFS, no overhead) — the normalization
	// reference.
	OrigTime, OrigEnergy float64
	// Norm holds energy/time/EDP normalized to the original run.
	Norm metrics.Result
	// Reassignments counts re-solves that changed at least one gear;
	// GearSwitches counts the per-rank gear changes across all of them.
	Reassignments, GearSwitches int
	// MeanLB and MinLB summarize the executed-balance series — how close
	// to balanced the controller kept the run, and its worst excursion.
	MeanLB, MinLB float64
	// Forecast reports the predictive policies' forecaster skill
	// (observation count, fallback count, rolling model-vs-naive error);
	// nil for the reactive policies.
	Forecast *predict.Stats
	// FinalGears is the per-rank gear vector after the last iteration.
	FinalGears []dvfs.Gear
}

// Errors.
var (
	// ErrNilTrace reports a missing trace.
	ErrNilTrace = errors.New("rebalance: config needs a trace")
	// ErrNoIterations reports a trace without iteration markers.
	ErrNoIterations = errors.New("rebalance: trace carries no iteration markers")
	// ErrCapWithoutPolicy reports a cap on a policy that cannot honor it.
	ErrCapWithoutPolicy = errors.New("rebalance: cap applies only to the capped policy")
	// ErrCapRequired reports a missing cap for the capped policy.
	ErrCapRequired = errors.New("rebalance: capped policy needs a positive cap")
	// ErrPredictWithoutPolicy reports a forecaster config on a policy that
	// never forecasts.
	ErrPredictWithoutPolicy = errors.New("rebalance: predict config applies only to the predictive policies")
)

func (c *Config) normalize() error {
	if c.Trace == nil {
		return ErrNilTrace
	}
	if c.Set == nil {
		return core.ErrNilSet
	}
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.Iterations < 0 {
		return fmt.Errorf("rebalance: negative iterations %d", c.Iterations)
	}
	if c.Policy < PolicyNever || c.Policy > maxPolicy {
		return fmt.Errorf("rebalance: unknown policy %d", int(c.Policy))
	}
	if c.Period == 0 {
		c.Period = 1
	}
	if c.Period < 0 {
		return fmt.Errorf("rebalance: negative period %d", c.Period)
	}
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.Threshold < 0 || c.Threshold >= 1 || math.IsNaN(c.Threshold) {
		return fmt.Errorf("rebalance: threshold %v outside (0, 1)", c.Threshold)
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 2
	}
	if c.Hysteresis < 0 {
		return fmt.Errorf("rebalance: negative hysteresis %d", c.Hysteresis)
	}
	if c.Policy.capped() {
		if c.Cap <= 0 || math.IsNaN(c.Cap) || math.IsInf(c.Cap, 0) {
			return ErrCapRequired
		}
		if c.Set.Continuous() {
			return fmt.Errorf("rebalance: %s policy needs a discrete gear set, got %s", c.Policy, c.Set.Name())
		}
	} else if c.Cap != 0 {
		return ErrCapWithoutPolicy
	}
	if c.Policy.predictive() {
		if c.Predict == (predict.Config{}) {
			c.Predict = predict.DefaultConfig()
		}
		if c.Horizon == 0 {
			c.Horizon = 3
		}
		if c.Horizon < 0 {
			return fmt.Errorf("rebalance: negative horizon %d", c.Horizon)
		}
	} else {
		if c.Predict != (predict.Config{}) {
			return ErrPredictWithoutPolicy
		}
		if c.Horizon != 0 {
			return fmt.Errorf("rebalance: horizon applies only to the predictive policies, got %d", c.Horizon)
		}
	}
	if c.Margin < 0 || c.Margin >= 1 || math.IsNaN(c.Margin) {
		return fmt.Errorf("rebalance: margin %v outside [0, 1)", c.Margin)
	}
	if c.ReassignOverhead < 0 || math.IsNaN(c.ReassignOverhead) || math.IsInf(c.ReassignOverhead, 0) {
		return fmt.Errorf("rebalance: reassign overhead must be finite and non-negative, got %v", c.ReassignOverhead)
	}
	if err := c.Drift.Validate(); err != nil {
		return err
	}
	return nil
}

// loop carries one run's state.
type loop struct {
	cfg     *Config
	opts    dimemas.Options // resolved β and FMax, with the run's Ctx
	pm      *power.Model
	machine dimemas.Machine
	rep     replayer
	gears   []dvfs.Gear
	freqs   []float64
	sd      []float64 // per rank: slowdown of the current gear
	chat    []float64 // per rank: observed compute de-scaled to FMax
	fc      *predict.Forecaster
	fcast   []float64 // per rank: forecast load for the next iteration
	fcomp   []float64 // per rank: predicted executed compute (fcast × sd)
	pscale  []float64 // per rank: power multipliers (nil: homogeneous)
	usage   []power.Usage

	// Capped policies only: the base-iteration skeleton the re-solves
	// schedule on, its per-rank compute at FMax, and the re-solve's scales.
	skel  *dimemas.Skeleton
	c0    []float64
	scale []float64
}

// pscaleAt returns rank r's power multiplier for Usage rows (0 — the
// nominal zero value — on homogeneous machines).
func (l *loop) pscaleAt(r int) float64 {
	if l.pscale == nil {
		return 0
	}
	return l.pscale[r]
}

// Run simulates the closed loop and reports the per-iteration series plus
// convergence metrics. Errors are stage-tagged (internal/stagerr):
// configuration problems carry the validate stage, everything else crosses
// rebalance with the origin stage preserved underneath.
func Run(cfg Config) (*Result, error) {
	res, err := run(cfg, newSkeletonReplayer)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Rebalance, err)
	}
	return res, nil
}

// replayer executes the online iterations of one run. The production
// replayer retimes the base iteration's timing skeleton; the tests inject
// one that simulates each drifted iteration afresh (RunFresh), which must
// agree bit for bit.
type replayer interface {
	// replay executes one iteration under per-rank drift factors scale:
	// at freqs (recording a timeline when asked) and at the all-FMax
	// reference.
	replay(freqs, scale []float64, timeline bool) (exec, ref *dimemas.Result, err error)
}

// skeletonReplayer retimes the base-iteration skeleton. Iterations whose
// (freqs, scale) repeat a recent one are answered by the delta memos
// without a pass, bit-identical to the RetimeScaled pass a timeline still
// needs.
type skeletonReplayer struct {
	skel  *dimemas.Skeleton
	dExec dimemas.DeltaState // executed iteration (no timeline)
	dRef  dimemas.DeltaState // FMax reference
}

func newSkeletonReplayer(skel *dimemas.Skeleton, _ *trace.Trace, _ dimemas.Machine, _ dimemas.Options) replayer {
	return &skeletonReplayer{skel: skel}
}

func (r *skeletonReplayer) replay(freqs, scale []float64, timeline bool) (exec, ref *dimemas.Result, err error) {
	if timeline {
		exec, err = r.skel.RetimeScaled(freqs, scale, true)
	} else {
		exec, err = r.skel.RetimeDelta(&r.dExec, freqs, scale)
	}
	if err != nil {
		return nil, nil, err
	}
	ref, err = r.skel.RetimeDelta(&r.dRef, nil, scale)
	if err != nil {
		return nil, nil, err
	}
	return exec, ref, nil
}

// run is Run over an injected replayer. The base-iteration skeleton is
// fetched here for every replayer: the capped re-solves schedule on it.
func run(cfg Config, newReplayer func(*dimemas.Skeleton, *trace.Trace, dimemas.Machine, dimemas.Options) replayer) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	if cfg.Trace.Iterations() == 0 {
		return nil, stagerr.Wrap(stagerr.Validate, ErrNoIterations)
	}
	opts, err := dimemas.ModelOptions(cfg.Beta, cfg.FMax)
	if err != nil {
		return nil, err
	}
	opts.Ctx = cfg.Ctx
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}
	base, err := cfg.Trace.Slice(0, 1)
	if err != nil {
		return nil, err
	}
	n := base.NumRanks()
	machine, err := dimemas.ResolveMachine(cfg.Platform, cfg.Machine, n)
	if err != nil {
		return nil, err
	}

	l := &loop{
		cfg:     &cfg,
		opts:    opts,
		pm:      pm,
		machine: machine,
		freqs:   make([]float64, n),
		sd:      make([]float64, n),
		chat:    make([]float64, n),
		usage:   make([]power.Usage, n),
	}
	if machine.Cap != nil && machine.Cap.PowerScale != nil {
		l.pscale = make([]float64, n)
		for r := range l.pscale {
			l.pscale[r] = machine.RankPowerScale(r)
		}
	}
	if cfg.Policy.predictive() {
		l.fc, err = predict.New(n, cfg.Predict)
		if err != nil {
			return nil, stagerr.Wrap(stagerr.Validate, err)
		}
		l.fcast = make([]float64, n)
		l.fcomp = make([]float64, n)
	}
	skel, err := cfg.Cache.SkeletonForSlice(cfg.Trace, 0, base, machine, opts)
	if err != nil {
		return nil, fmt.Errorf("rebalance: base-iteration skeleton: %w", err)
	}
	l.rep = newReplayer(skel, base, machine, opts)

	factors, err := cfg.Drift.Factors(n, cfg.Iterations)
	if err != nil {
		return nil, err
	}

	// Initial gears: the profiling iteration runs at the nominal top
	// frequency — except under a cap, which must hold from the first
	// iteration: the cold start is the blind governor's uniform downshift.
	nominal := dvfs.GearAt(opts.FMax)
	nomGears := make([]dvfs.Gear, n)
	l.gears = make([]dvfs.Gear, n)
	for r := range l.gears {
		nomGears[r] = nominal
		l.gears[r] = nominal
	}
	if cfg.Policy.capped() {
		fmax, err := skel.Retime(nil, false)
		if err != nil {
			return nil, err
		}
		l.skel, l.c0, l.scale = skel, fmax.Compute, make([]float64, n)
		if err := l.cappedColdStart(); err != nil {
			return nil, err
		}
	}
	l.syncGearState()

	res := &Result{
		App:        cfg.Trace.App,
		Policy:     cfg.Policy,
		Iterations: make([]IterationStats, 0, cfg.Iterations),
		MinLB:      math.Inf(1),
	}

	var (
		solved     bool    // first assignment done (after the profiling iteration)
		lastSolve  int     // iteration whose observation fed the last re-solve
		lbRef      = -1.0  // balance right after the last assignment; <0 = unset
		violations int     // consecutive threshold violations
		rebalanced bool    // gears changed before the upcoming iteration
		lbSum      float64 // running MeanLB numerator
		breaksSeen int     // forecaster structural breaks already handled
		refineAt   = -1    // iteration of the pending post-break consolidation re-solve
	)
	for it := 0; it < cfg.Iterations; it++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		exec, ref, err := l.rep.replay(l.freqs, factors[it], cfg.ExactPeaks)
		if err != nil {
			return nil, fmt.Errorf("rebalance: iteration %d: %w", it, err)
		}

		// Account the executed iteration and the FMax reference.
		energy, err := l.energyOf(exec, l.gears)
		if err != nil {
			return nil, err
		}
		itTime := exec.Time
		if rebalanced && cfg.ReassignOverhead > 0 {
			// Ranks sit in the runtime (communication-phase power) while
			// the coordination and the gear transitions are paid for.
			itTime += cfg.ReassignOverhead
			for _, g := range l.gears {
				energy += cfg.ReassignOverhead * pm.Power(power.Comm, g)
			}
		}
		peak, err := l.peakOf(exec)
		if err != nil {
			return nil, err
		}
		lb, err := metrics.LoadBalance(exec.Compute)
		if err != nil {
			return nil, fmt.Errorf("rebalance: iteration %d: %w", it, err)
		}
		refEnergy, err := l.energyOf(ref, nomGears)
		if err != nil {
			return nil, err
		}

		res.Iterations = append(res.Iterations, IterationStats{
			Time:       itTime,
			Energy:     energy,
			PeakPower:  peak,
			LB:         lb,
			Rebalanced: rebalanced,
		})
		res.TotalTime += itTime
		res.TotalEnergy += energy
		if peak > res.PeakPower {
			res.PeakPower = peak
		}
		res.OrigTime += ref.Time
		res.OrigEnergy += refEnergy
		lbSum += lb
		if lb < res.MinLB {
			res.MinLB = lb
		}
		rebalanced = false

		// Observe and decide the gears of iteration it+1.
		if it == cfg.Iterations-1 {
			break
		}
		l.observe(exec)
		if l.fc != nil {
			// Feed the forecaster every iteration, whether or not a re-solve
			// triggers, so the model tracks the series continuously.
			if err := l.fc.Observe(l.chat); err != nil {
				return nil, err
			}
			if st := l.fc.Stats(); st.Breaks > breaksSeen {
				// Structural break: the emergency re-solve below will target
				// a single post-break observation. Schedule one consolidation
				// re-solve for when the fit window has refilled with the new
				// regime, to shed that sample's jitter.
				breaksSeen = st.Breaks
				refineAt = it + cfg.Predict.Window
			}
			l.fcast = l.fc.Forecast(l.fcast)
		}
		solve := false
		switch {
		case !solved:
			// Every policy turns its first observation into an assignment.
			solve = true
		case cfg.Policy == PolicyNever:
		case cfg.Policy == PolicyEveryK:
			solve = it-lastSolve >= cfg.Period
		case cfg.Policy.predictive():
			if lbRef < 0 {
				// First iteration executed with the current assignment:
				// its balance is the reference the trigger degrades from.
				lbRef = lb
				break
			}
			// Watch the *predicted* executed balance of the next iteration
			// under the current gears: forecast load × current slowdown.
			// With the fallback guard active the forecast is the last
			// observation, the predicted balance equals the observed one,
			// and the policy degrades to exactly the threshold trigger.
			watch := lb
			for r := range l.fcomp {
				l.fcomp[r] = l.fcast[r] * l.sd[r]
			}
			if plb, err := metrics.LoadBalance(l.fcomp); err == nil {
				watch = plb
			}
			if watch < lbRef-cfg.Threshold {
				violations++
			} else {
				violations = 0
			}
			// A trusted forecast already smooths jitter, and waiting for
			// hysteresis would forfeit the anticipation the forecast buys;
			// only the fallback (reactive) mode keeps the hysteresis debounce.
			need := 1
			if l.fc.FallingBack() {
				need = cfg.Hysteresis
			}
			solve = violations >= need
			if refineAt >= 0 && it >= refineAt && !l.fc.FallingBack() {
				solve = true
				refineAt = -1
			}
		default: // PolicyThreshold, PolicyCapped
			if lbRef < 0 {
				// First iteration executed with the current assignment:
				// its balance is the reference the trigger degrades from.
				lbRef = lb
				break
			}
			if lb < lbRef-cfg.Threshold {
				violations++
			} else {
				violations = 0
			}
			solve = violations >= cfg.Hysteresis
		}
		if !solve {
			continue
		}
		next, err := l.solve()
		if err != nil {
			return nil, fmt.Errorf("rebalance: iteration %d re-solve: %w", it, err)
		}
		solved = true
		lastSolve = it
		violations = 0
		lbRef = -1
		switches := 0
		for r := range next {
			if next[r] != l.gears[r] {
				switches++
			}
		}
		if switches > 0 {
			res.Reassignments++
			res.GearSwitches += switches
			rebalanced = true
			copy(l.gears, next)
			l.syncGearState()
		}
	}

	res.MeanLB = lbSum / float64(len(res.Iterations))
	res.Norm = metrics.NewResult(res.OrigEnergy, res.OrigTime, res.TotalEnergy, res.TotalTime)
	res.FinalGears = append([]dvfs.Gear(nil), l.gears...)
	if l.fc != nil {
		st := l.fc.Stats()
		res.Forecast = &st
	}
	return res, nil
}

// syncGearState refreshes the per-rank frequency and slowdown caches after a
// gear change.
func (l *loop) syncGearState() {
	for r, g := range l.gears {
		l.freqs[r] = g.Freq
		l.sd[r] = timemodel.Slowdown(l.opts.Beta, l.opts.FMax, g.Freq)
	}
}

// observe de-scales the executed iteration's per-rank computation times back
// to FMax — what a runtime derives from its timers and the gears it set —
// feeding the next assignment.
func (l *loop) observe(exec *dimemas.Result) {
	for r, c := range exec.Compute {
		l.chat[r] = c / l.sd[r]
	}
}

// solve computes a fresh gear vector from the observed loads — or, for the
// predictive policies, from the forecast loads, so the assignment targets
// where the load is going rather than where it was.
func (l *loop) solve() ([]dvfs.Gear, error) {
	cfg := l.cfg
	loads := l.chat
	if cfg.Policy.predictive() {
		// Target the mid-validity horizon of the new assignment, not the
		// very next iteration (with the guard active this is still the last
		// observation — exactly the reactive target).
		loads = l.fc.ForecastAhead(cfg.Horizon, l.fcast)
	}
	if cfg.Policy.capped() {
		return l.solveCapped(loads)
	}
	var fmaxes []float64
	if l.machine.Cap != nil {
		fmaxes = l.machine.Cap.FMax
	}
	balancer := &core.Balancer{Set: cfg.Set, Beta: l.opts.Beta, FMax: l.opts.FMax, Margin: cfg.Margin, FMaxes: fmaxes}
	a, err := balancer.Assign(cfg.Algorithm, loads)
	if err != nil {
		return nil, err
	}
	return a.Gears, nil
}

// solveCapped re-solves under the peak budget on the loop's own recording:
// the given loads (observed, or forecast for the predictive policy) become
// per-rank scales of the base iteration's FMax compute, and powercap
// redistributes over the scaled skeleton — budget headroom moves toward the
// (predicted) critical rank. The loads and c0 both carry the machine's
// capability stretch, so each scale is the rank's genuine drift.
func (l *loop) solveCapped(loads []float64) ([]dvfs.Gear, error) {
	for r, c := range l.c0 {
		l.scale[r] = 1 // idle rank: nothing to scale
		if c > 0 {
			l.scale[r] = loads[r] / c
		}
	}
	cfg := l.cfg
	return powercap.Reschedule(powercap.Config{
		Platform: cfg.Platform,
		Machine:  cfg.Machine,
		Power:    cfg.Power,
		Set:      cfg.Set,
		Cap:      cfg.Cap,
		Kind:     powercap.CapPeak,
		Beta:     cfg.Beta,
		FMax:     cfg.FMax,
		Ctx:      cfg.Ctx,
	}, l.skel, l.scale)
}

// cappedColdStart parks every rank on the highest uniform gear whose
// all-compute peak fits the budget — what a cluster governor without
// application knowledge does before the first observation. On
// heterogeneous machines the level is clamped to each rank's capability
// ceiling and the peak sums scaled per-rank draws.
func (l *loop) cappedColdStart() error {
	cfg := l.cfg
	gears := cfg.Set.Gears()
	n := len(l.gears)
	ceil := make([]int, n)
	for r := range ceil {
		ceil[r] = l.machine.RankTopGear(r, gears)
	}
	scale := func(r int) float64 {
		if l.pscale == nil {
			return 1
		}
		return l.pscale[r]
	}
	for gi := len(gears) - 1; gi >= 0; gi-- {
		var peak float64
		for r := 0; r < n; r++ {
			g := gi
			if ceil[r] < g {
				g = ceil[r]
			}
			peak += scale(r) * l.pm.Power(power.Compute, gears[g])
		}
		if peak <= cfg.Cap {
			for r := range l.gears {
				g := gi
				if ceil[r] < g {
					g = ceil[r]
				}
				l.gears[r] = gears[g]
			}
			return nil
		}
	}
	var floor float64
	for r := 0; r < n; r++ {
		floor += scale(r) * l.pm.Power(power.Compute, gears[0])
	}
	return fmt.Errorf("%w: peak cap %.6g below the all-bottom-gear compute power %.6g (%d ranks at %s)",
		powercap.ErrCapInfeasible, cfg.Cap, floor, n, gears[0])
}

// energyOf accounts the CPU energy of one executed iteration at explicit
// gears, with the same Usage construction the offline pipeline uses.
func (l *loop) energyOf(res *dimemas.Result, gears []dvfs.Gear) (float64, error) {
	for r := range gears {
		l.usage[r] = power.Usage{
			Gear:        gears[r],
			ComputeTime: res.Compute[r],
			CommTime:    res.Comm(r),
			Scale:       l.pscaleAt(r),
		}
	}
	b, err := l.pm.EnergyBreakdown(l.usage)
	if err != nil {
		return 0, err
	}
	return b.Total(), nil
}

// peakOf reports the iteration's cluster power peak: exact from the
// recorded timeline under ExactPeaks, the all-ranks-computing upper bound
// otherwise.
func (l *loop) peakOf(exec *dimemas.Result) (float64, error) {
	if l.cfg.ExactPeaks {
		profile, err := power.BuildProfileScaled(l.pm, exec.Timeline, l.gears, l.pscale, exec.Time)
		if err != nil {
			return 0, err
		}
		return profile.Peak(), nil
	}
	var sum float64
	if l.pscale == nil {
		for _, g := range l.gears {
			sum += l.pm.Power(power.Compute, g)
		}
		return sum, nil
	}
	for r, g := range l.gears {
		sum += l.pscale[r] * l.pm.Power(power.Compute, g)
	}
	return sum, nil
}
