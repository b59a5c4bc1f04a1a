// Package analysis is the paper's power analysis module (§4): it glues the
// pipeline together. Given a trace, it measures the original execution,
// assigns one DVFS gear per process according to an algorithm and gear set,
// replays the rescaled execution, and accounts original vs. new CPU energy.
package analysis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// Config parameterizes one analysis run.
type Config struct {
	// Trace is the application trace (iterative region only).
	Trace *trace.Trace
	// Platform models the interconnect; zero value means DefaultPlatform.
	Platform dimemas.Platform
	// Machine optionally layers topology and per-rank capability on top of
	// Platform (nil means the flat homogeneous machine). The pipeline then
	// replays on the layered machine, the balancer honors per-rank frequency
	// ceilings (Capability.FMax), and the energy accounting multiplies each
	// rank's draw by Capability.PowerScale. A Machine with a zero Base
	// inherits the Platform (dimemas.ResolveMachine).
	Machine *dimemas.Machine
	// Power configures the CPU power model; zero value means the paper's
	// baseline (ratio 1.5, static 20 %).
	Power power.Config
	// Set is the available DVFS gear set.
	Set *dvfs.Set
	// Algorithm selects MAX or AVG.
	Algorithm core.Algorithm
	// Beta is the memory-boundedness parameter in [0, 1]; nil selects the
	// paper's default 0.5 (dimemas.ModelOptions).
	Beta *float64
	// FMax is the nominal top frequency (default dvfs.FMax when zero).
	FMax float64
	// RecordTimelines retains per-rank execution segments of both runs for
	// visualization.
	RecordTimelines bool
	// Rounding selects the gear-quantization rule; the zero value is the
	// paper's closest-higher rule.
	Rounding core.Rounding
	// Cache optionally memoizes original executions and timing skeletons
	// across runs: sweeps that evaluate many variants of the same trace
	// record the trace once instead of once per variant. Both replays of a
	// run retime that recording (bit-identical to a fresh simulation); a
	// nil Cache gives the run a private one, so it still records once. The
	// cached values are shared and must be treated as read-only (Run itself
	// never mutates them).
	Cache *dimemas.ReplayCache
	// Ctx optionally bounds the run: the replay and retiming stages poll
	// it and abort with its error once it is done, so serving layers can
	// stop paying for requests that already timed out.
	Ctx context.Context
}

// RunStats describes one simulated execution's cost.
type RunStats struct {
	Time      float64
	Energy    float64
	Breakdown power.Breakdown
	// Compute is the per-rank computation time (at that run's gears).
	Compute []float64
	// Timeline is per-rank segments when Config.RecordTimelines is set.
	Timeline [][]dimemas.Segment
}

// Result is the outcome of one analysis run.
type Result struct {
	// App names the analyzed trace.
	App string
	// Assignment is the per-rank gear decision.
	Assignment *core.Assignment
	// Orig is the all-ranks-at-fmax execution; New is the DVFS execution.
	Orig, New RunStats
	// Norm holds energy/time/EDP normalized to the original run.
	Norm metrics.Result
	// LB and PE are the original execution's characteristics (Table 3).
	LB, PE float64
}

// ErrNilTrace reports a missing trace.
var ErrNilTrace = errors.New("analysis: config needs a trace")

func (c *Config) normalize() error {
	if c.Trace == nil {
		return ErrNilTrace
	}
	if c.Set == nil {
		return core.ErrNilSet
	}
	return nil
}

// model resolves the replay options and the layered machine of a run
// whose trace is known to be set.
func (c *Config) model() (dimemas.Options, dimemas.Machine, error) {
	opts, err := dimemas.ModelOptions(c.Beta, c.FMax)
	if err != nil {
		return opts, dimemas.Machine{}, err
	}
	opts.Ctx = c.Ctx
	m, err := dimemas.ResolveMachine(c.Platform, c.Machine, c.Trace.NumRanks())
	return opts, m, err
}

// capFMaxes returns the machine's per-rank frequency ceilings for the
// balancer, nil when every rank may use the whole gear set.
func capFMaxes(m *dimemas.Machine) []float64 {
	if m.Cap == nil {
		return nil
	}
	return m.Cap.FMax
}

// powerScales returns the machine's per-rank power multipliers for the
// energy accounting, nil on homogeneous machines.
func powerScales(m *dimemas.Machine) []float64 {
	if m.Cap == nil {
		return nil
	}
	return m.Cap.PowerScale
}

// Run executes the full pipeline. Errors are stage-tagged
// (internal/stagerr): configuration problems carry the validate stage,
// everything past validation crosses optimize on its way out, with the
// origin stage (skeleton/retime/cache) preserved underneath.
func Run(cfg Config) (*Result, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Optimize, err)
	}
	return res, nil
}

func run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	simOpts, machine, err := cfg.model()
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	simOpts.RecordTimeline = cfg.RecordTimelines
	// Warm-cache runs touch no cancellation point inside the replays; bail
	// out here so loops of Runs (batch serving, searches) stay responsive.
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}

	// Original execution: every rank at the nominal top frequency. A nil
	// cache gets a private one, as in RunBatch: the baseline and the DVFS
	// replay then retime one recording.
	cache := cfg.Cache
	if cache == nil {
		cache = dimemas.NewReplayCache()
	}
	orig, err := cache.ReplayMachine(cfg.Trace, machine, simOpts)
	if err != nil {
		return nil, fmt.Errorf("analysis: original replay: %w", err)
	}
	lb, err := metrics.LoadBalance(orig.Compute)
	if err != nil {
		return nil, err
	}
	pe, err := metrics.ParallelEfficiency(orig.Compute, orig.Time)
	if err != nil {
		return nil, err
	}

	// Frequency assignment from the original per-process computation times,
	// honoring per-rank frequency ceilings on heterogeneous machines.
	balancer := &core.Balancer{Set: cfg.Set, Beta: simOpts.Beta, FMax: simOpts.FMax, Rounding: cfg.Rounding, FMaxes: capFMaxes(&machine)}
	assignment, err := balancer.Assign(cfg.Algorithm, orig.Compute)
	if err != nil {
		return nil, err
	}

	// Replay with per-rank frequencies: a retiming of the recording,
	// bit-identical to a fresh simulation.
	newOpts := simOpts
	newOpts.Freqs = assignment.Freqs()
	next, err := cache.ReplayMachine(cfg.Trace, machine, newOpts)
	if err != nil {
		return nil, fmt.Errorf("analysis: DVFS replay: %w", err)
	}

	// Energy accounting: each CPU is powered for the whole run at its
	// assigned gear; whatever is not computation is communication/wait.
	nominal := dvfs.GearAt(simOpts.FMax)
	scales := powerScales(&machine)
	origStats, err := runStats(pm, orig, uniformGears(len(orig.Compute), nominal), scales)
	if err != nil {
		return nil, err
	}
	newStats, err := runStats(pm, next, assignment.Gears, scales)
	if err != nil {
		return nil, err
	}

	return &Result{
		App:        cfg.Trace.App,
		Assignment: assignment,
		Orig:       origStats,
		New:        newStats,
		Norm:       metrics.NewResult(origStats.Energy, origStats.Time, newStats.Energy, newStats.Time),
		LB:         lb,
		PE:         pe,
	}, nil
}

func uniformGears(n int, g dvfs.Gear) []dvfs.Gear {
	out := make([]dvfs.Gear, n)
	for i := range out {
		out[i] = g
	}
	return out
}

func runStats(pm *power.Model, res *dimemas.Result, gears []dvfs.Gear, scales []float64) (RunStats, error) {
	usages := make([]power.Usage, len(res.Compute))
	for r := range usages {
		usages[r] = power.Usage{
			Gear:        gears[r],
			ComputeTime: res.Compute[r],
			CommTime:    res.Comm(r),
		}
		if scales != nil {
			usages[r].Scale = scales[r]
		}
	}
	b, err := pm.EnergyBreakdown(usages)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Time:      res.Time,
		Energy:    b.Total(),
		Breakdown: b,
		Compute:   res.Compute,
		Timeline:  res.Timeline,
	}, nil
}

// Compare runs both MAX and AVG on the same trace with their respective gear
// sets (the paper's Figure 10 setup) and returns both results.
func Compare(cfg Config, maxSet, avgSet *dvfs.Set) (maxRes, avgRes *Result, err error) {
	cfg.Set = maxSet
	cfg.Algorithm = core.MAX
	maxRes, err = Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: MAX: %w", err)
	}
	cfg.Set = avgSet
	cfg.Algorithm = core.AVG
	avgRes, err = Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: AVG: %w", err)
	}
	return maxRes, avgRes, nil
}
