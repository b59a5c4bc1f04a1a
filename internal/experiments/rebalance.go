package experiments

import (
	"fmt"
	"io"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/rebalance"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Online-rebalancing extension: the paper's end goal is a *runtime* that
// re-assigns DVFS gears while the application runs. This study exposes the
// static one-shot assignment to drifting per-rank load and compares
// rebalancing triggers: never (the paper's offline algorithm), always
// (re-solve every iteration, paying the runtime overhead each time), and a
// balance-degradation threshold with hysteresis — plus the threshold trigger
// under a fixed peak power budget, where every re-solve delegates to the
// power-cap redistribution scheduler.

// RebalanceScenario names one drift model of the sweep.
type RebalanceScenario struct {
	Name  string
	Drift workload.Drift
}

// DefaultRebalanceScenarios returns the three drift shapes of the study,
// all overlaid with transient jitter a good trigger should ignore:
// a progressive ramp (imbalance migrates across ranks), a random walk
// (unstructured divergence), and a mid-run step (sudden phase change).
func DefaultRebalanceScenarios() []RebalanceScenario {
	return []RebalanceScenario{
		{"ramp", workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.5, Jitter: 0.02, Seed: 41}},
		{"walk", workload.Drift{Kind: workload.DriftWalk, Magnitude: 0.015, Jitter: 0.02, Seed: 42}},
		{"step", workload.Drift{Kind: workload.DriftStep, Magnitude: 0.5, Jitter: 0.02, Seed: 40}},
	}
}

// Study parameters: 60 online iterations give every drift shape time to
// bite. The re-assignment overhead models the runtime's coordination (an
// allreduce of per-rank timings, the re-solve, and the DVFS transitions) —
// 3 ms against ~60 ms iterations, so re-solving every iteration costs real
// time and energy while threshold-triggered re-solves amortize it. The 15%
// guard band keeps iteration noise from stretching a freshly balanced run
// (without it, every adaptive policy loses several percent of time to the
// max-over-ranks load surprise), and the 1%-degradation trigger with
// 2-iteration hysteresis re-solves on persistent drift only.
const (
	rebalanceIterations = 60
	rebalanceOverhead   = 3e-3
	rebalanceMargin     = 0.15
	rebalanceThreshold  = 0.01
	rebalanceHysteresis = 2
	rebalanceCapFrac    = 0.70
	// rebalancePredictWindow sizes the predictive policies' linear-trend
	// fit and skill window: long enough to average the 2% iteration jitter
	// out of the slope estimate, short enough to re-fit quickly after the
	// step scenario's phase change.
	rebalancePredictWindow = 12
)

// rebalancePredict is the forecaster the predictive policies run with.
func rebalancePredict() predict.Config {
	return predict.Config{Kind: predict.KindLinear, Window: rebalancePredictWindow}
}

// RebalanceRow is one drift scenario's policy comparison.
type RebalanceRow struct {
	Scenario string
	// Per-policy totals normalized to the all-at-FMax execution of the
	// same drifted iterations.
	NeverTime, NeverEnergy   float64
	AlwaysTime, AlwaysEnergy float64
	ThreshTime, ThreshEnergy float64
	// ThreshReassigns and AlwaysReassigns count gear-changing re-solves.
	ThreshReassigns, AlwaysReassigns int
	// Capped is the threshold trigger under a peak budget of
	// rebalanceCapFrac × the uncapped all-compute peak; CapPeak is the
	// worst per-iteration exact profile peak (never above Cap).
	CapTime, CapEnergy, CapPeak, Cap float64
	// Pred is the predictive policy: forecast-triggered re-solves against
	// the forecast load vector (internal/predict).
	PredTime, PredEnergy float64
	PredReassigns        int
	// PredFallbacks counts iterations the forecaster answered with the
	// last observation because the model had no demonstrated skill.
	PredFallbacks int
	// PredCap is the predictive trigger under the same peak budget as
	// Capped: forecast-driven power redistribution.
	PredCapTime, PredCapEnergy, PredCapPeak float64
}

// rebalanceArm is one policy column of the drift sweep: the policy, and
// whether it runs under the peak budget with exact peak accounting.
type rebalanceArm struct {
	policy rebalance.Policy
	capped bool
}

// rebalanceArms lists the sweep's policy columns in the order each row's
// arms are run (and its first failing arm reported).
var rebalanceArms = []rebalanceArm{
	{rebalance.PolicyNever, false},
	{rebalance.PolicyEveryK, false},
	{rebalance.PolicyThreshold, false},
	{rebalance.PolicyCapped, true},
	{rebalance.PolicyPredictive, false},
	{rebalance.PolicyPredictiveCapped, true},
}

// RebalanceSweep runs every scenario × policy combination for one
// application, one cell per pair, sharing the suite's replay cache (one
// base-iteration skeleton for the entire sweep). Each row is assembled from
// its arms once every cell has run.
func (s *Suite) RebalanceSweep(app string, scenarios []RebalanceScenario) ([]RebalanceRow, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cap := rebalanceCapFrac * float64(tr.NumRanks()) * pm.Power(power.Compute, dvfs.GearAt(s.Gen.FMax))

	arms := len(rebalanceArms)
	res := make([]*rebalance.Result, len(scenarios)*arms)
	err = s.cells(len(res), func(k int) error {
		sc, arm := scenarios[k/arms], rebalanceArms[k%arms]
		cfg := s.rebalanceConfig(tr, six, sc.Drift)
		cfg.Policy = arm.policy
		if arm.capped {
			cfg.Cap = cap
			cfg.ExactPeaks = true
		}
		if arm.policy == rebalance.PolicyPredictive || arm.policy == rebalance.PolicyPredictiveCapped {
			cfg.Predict = rebalancePredict()
		}
		r, err := rebalance.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: rebalance %s/%s/%s: %w", app, sc.Name, arm.policy, err)
		}
		res[k] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]RebalanceRow, len(scenarios))
	for i, sc := range scenarios {
		r := res[i*arms : (i+1)*arms]
		never, always, thresh, capped, pred, predCap := r[0], r[1], r[2], r[3], r[4], r[5]
		rows[i] = RebalanceRow{
			Scenario:        sc.Name,
			NeverTime:       never.Norm.Time,
			NeverEnergy:     never.Norm.Energy,
			AlwaysTime:      always.Norm.Time,
			AlwaysEnergy:    always.Norm.Energy,
			ThreshTime:      thresh.Norm.Time,
			ThreshEnergy:    thresh.Norm.Energy,
			ThreshReassigns: thresh.Reassignments,
			AlwaysReassigns: always.Reassignments,
			CapTime:         capped.Norm.Time,
			CapEnergy:       capped.Norm.Energy,
			CapPeak:         capped.PeakPower,
			Cap:             cap,
			PredTime:        pred.Norm.Time,
			PredEnergy:      pred.Norm.Energy,
			PredReassigns:   pred.Reassignments,
			PredFallbacks:   pred.Forecast.Fallbacks,
			PredCapTime:     predCap.Norm.Time,
			PredCapEnergy:   predCap.Norm.Energy,
			PredCapPeak:     predCap.PeakPower,
		}
	}
	return rows, nil
}

// rebalanceConfig builds the study's shared controller configuration for one
// application trace and drift scenario (policy, cap and peak accounting are
// set per arm by the sweep).
func (s *Suite) rebalanceConfig(tr *trace.Trace, set *dvfs.Set, drift workload.Drift) rebalance.Config {
	return rebalance.Config{
		Trace:            tr,
		Platform:         s.Gen.Platform,
		Set:              set,
		Beta:             &s.Beta,
		FMax:             s.Gen.FMax,
		Iterations:       rebalanceIterations,
		Drift:            drift,
		Threshold:        rebalanceThreshold,
		Hysteresis:       rebalanceHysteresis,
		Margin:           rebalanceMargin,
		ReassignOverhead: rebalanceOverhead,
		Cache:            s.replays,
	}
}

// RebalanceTable renders one application's drift-scenario sweep.
func RebalanceTable(app string, rows []RebalanceRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension — online rebalancing under load drift, %s (%d iterations, 6-gear set, MAX)", app, rebalanceIterations),
		Header: []string{"drift", "E never", "E always", "E thresh", "E pred", "T never", "T always", "T thresh", "T pred",
			"solves a/t/p", "E capped", "E pcap", "peak/cap (W)"},
		Notes: []string{
			"E/T: total energy and time over the drifting run, normalized to the all-at-FMax execution of the same iterations.",
			"never: the paper's one-shot assignment exposed to drift; always: re-solve every iteration (paying the runtime overhead); thresh: balance-degradation trigger with hysteresis.",
			fmt.Sprintf("pred: predictive policy — a %d-observation linear-trend forecaster triggers on the predicted balance of the next iteration and re-solves against the forecast loads; on unforecastable drift (walk) its skill guard degrades it to the threshold trigger.", rebalancePredictWindow),
			"solves a/t/p: gear-changing re-solves of always vs threshold vs predictive.",
			fmt.Sprintf("capped/pcap: threshold and predictive triggers under a %.0f%% peak budget via powercap redistribution; peak is the worst per-iteration exact profile peak across both — never above the cap.", rebalanceCapFrac*100),
		},
	}
	for _, r := range rows {
		peak := r.CapPeak
		if r.PredCapPeak > peak {
			peak = r.PredCapPeak
		}
		t.Rows = append(t.Rows, []string{
			r.Scenario,
			pct(r.NeverEnergy), pct(r.AlwaysEnergy), pct(r.ThreshEnergy), pct(r.PredEnergy),
			pct(r.NeverTime), pct(r.AlwaysTime), pct(r.ThreshTime), pct(r.PredTime),
			fmt.Sprintf("%d/%d/%d", r.AlwaysReassigns, r.ThreshReassigns, r.PredReassigns),
			pct(r.CapEnergy), pct(r.PredCapEnergy),
			fmt.Sprintf("%.0f/%.0f", peak, r.Cap),
		})
	}
	return t
}

// RebalanceStudy runs the drift sweep for the two large instances the
// powercap study also uses.
func (s *Suite) RebalanceStudy(w io.Writer) error {
	for _, app := range []string{"WRF-128", "SPECFEM3D-96"} {
		rows, err := s.RebalanceSweep(app, DefaultRebalanceScenarios())
		if err != nil {
			return err
		}
		if err := RebalanceTable(app, rows).Write(w); err != nil {
			return err
		}
	}
	return nil
}
