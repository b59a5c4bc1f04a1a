package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dimemas"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

// Config controls trace generation.
type Config struct {
	// Iterations is the number of outer-loop iterations to emit.
	Iterations int
	// BaseCompute is the most loaded rank's computation time per iteration,
	// in seconds at the nominal top frequency.
	BaseCompute float64
	// Platform is the machine model used for parallel-efficiency
	// calibration; it should be the same platform later used for replay.
	Platform dimemas.Platform
	// FMax is the nominal top frequency the trace durations refer to.
	FMax float64
	// SkipPECalibration disables the communication-volume bisection; the
	// trace then carries the default communication sizes. Load balance is
	// still calibrated exactly. Useful for unit tests.
	SkipPECalibration bool
	// Ctx optionally bounds generation: the calibration's bisection
	// replays poll it and abort with its error once it is done, so a
	// serving layer can stop paying for a request that already timed out.
	Ctx context.Context
}

// DefaultConfig returns the generation parameters used by all experiments:
// 20 iterations, 50 ms of computation per iteration on the critical path,
// the default Myrinet-class platform.
func DefaultConfig() Config {
	return Config{
		Iterations:  20,
		BaseCompute: 0.05,
		Platform:    dimemas.DefaultPlatform(),
		FMax:        2.3,
	}
}

func (c Config) validate() error {
	if c.Iterations <= 0 {
		return fmt.Errorf("workload: iterations must be positive, got %d", c.Iterations)
	}
	if c.BaseCompute <= 0 {
		return fmt.Errorf("workload: base compute must be positive, got %v", c.BaseCompute)
	}
	if c.FMax <= 0 {
		return fmt.Errorf("workload: fmax must be positive, got %v", c.FMax)
	}
	return c.Platform.Validate()
}

// plan holds the precomputed per-iteration structure of an instance: the
// per-phase load vectors (seconds at fmax) and the communication emitter.
type plan struct {
	inst   Instance
	phases [][]float64
	// emit appends one full iteration (computation and communication) for
	// every rank. Message sizes that the calibration scales go through
	// e.scaled with their base size; the rest are fixed.
	emit func(e *emitter)
}

// newPlan builds the application-specific structure of the instance.
func newPlan(inst Instance, cfg Config) (*plan, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(inst.seed()))
	n := inst.NProcs
	p := &plan{inst: inst}

	// Calibrated single-phase loads, normalized to max = 1, then scaled to
	// BaseCompute seconds on the critical rank.
	single := func(raw []float64) ([]float64, error) {
		x, err := calibrateLB(raw, inst.TargetLB)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", inst.Name, err)
		}
		return stats.Scale(x, cfg.BaseCompute), nil
	}

	switch inst.App {
	case "CG":
		// Conjugate gradient: near-uniform loads, dominated by dot-product
		// allreduces and a ring exchange of the distributed matrix rows.
		loads, err := single(noisyLoads(n, rng, 0.04))
		if err != nil {
			return nil, err
		}
		p.phases = [][]float64{loads}
		p.emit = func(e *emitter) {
			computePhase(e, loads)
			ringExchange(e, n, 64<<10, 1)
			allReduce(e, n, 8)
			allReduce(e, n, 8)
		}

	case "MG":
		// Multigrid V-cycle: halo exchanges at four grid levels with
		// geometrically shrinking payloads plus a residual allreduce.
		loads, err := single(noisyLoads(n, rng, 0.06))
		if err != nil {
			return nil, err
		}
		nx, ny := gridDims(n)
		p.phases = [][]float64{loads}
		p.emit = func(e *emitter) {
			computePhase(e, loads)
			for level := 0; level < 4; level++ {
				haloExchange2D(e, nx, ny, 32<<10>>level, 10+4*level)
			}
			allReduce(e, n, 8)
		}

	case "IS":
		// Integer sort: strongly value-skewed bucket counting followed by
		// the dominant all-to-all key exchange.
		loads, err := single(skewLoads(n, rng, 0.25, 2.2))
		if err != nil {
			return nil, err
		}
		p.phases = [][]float64{loads}
		p.emit = func(e *emitter) {
			computePhase(e, loads)
			collective(e, n, trace.CollAllToAll, 512<<10)
			allReduce(e, n, 64)
		}

	case "BT-MZ":
		// NPB multi-zone block-tridiagonal: geometrically sized zones dealt
		// to ranks create heavy imbalance; zones exchange borders with
		// point-to-point messages.
		loads, err := single(zoneLoads(n, rng))
		if err != nil {
			return nil, err
		}
		nx, ny := gridDims(n)
		p.phases = [][]float64{loads}
		p.emit = func(e *emitter) {
			computePhase(e, loads)
			haloExchange2D(e, nx, ny, 16<<10, 1)
		}

	case "SPECFEM3D":
		// Spectral-element seismic wave propagation: 2-D domain
		// decomposition with moderate mesh-induced imbalance.
		loads, err := single(rampLoads(n, rng, 0.35, 0.05))
		if err != nil {
			return nil, err
		}
		nx, ny := gridDims(n)
		p.phases = [][]float64{loads}
		p.emit = func(e *emitter) {
			computePhase(e, loads)
			haloExchange2D(e, nx, ny, 48<<10, 1)
		}

	case "WRF":
		// Weather prediction: 2-D latitude/longitude stencil; work varies
		// smoothly across the domain (physics depends on location).
		loads, err := single(rampLoads(n, rng, 0.2, 0.04))
		if err != nil {
			return nil, err
		}
		nx, ny := gridDims(n)
		p.phases = [][]float64{loads}
		p.emit = func(e *emitter) {
			computePhase(e, loads)
			haloExchange2D(e, nx, ny, 64<<10, 1)
			allReduce(e, n, 8)
		}

	case "PEPC":
		// Plasma-physics tree code: two computation phases per iteration
		// with different (anti-correlated) imbalance — the reason a single
		// per-process DVFS setting struggles with PEPC in the paper.
		a, b, err := calibrateTwoPhase(n, inst.seed(), 0.6, 0.4, inst.TargetLB)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", inst.Name, err)
		}
		// Scale so the summed critical-path rank computes BaseCompute.
		tot := make([]float64, n)
		for i := range tot {
			tot[i] = a[i] + b[i]
		}
		k := cfg.BaseCompute / stats.Max(tot)
		stats.Scale(a, k)
		stats.Scale(b, k)
		p.phases = [][]float64{a, b}
		p.emit = func(e *emitter) {
			computePhase(e, a)
			collective(e, n, trace.CollAllGather, 128<<10)
			computePhase(e, b)
			allReduce(e, n, 8)
		}

	default:
		return nil, fmt.Errorf("workload: unknown application %q", inst.App)
	}
	return p, nil
}

// scaleBytes multiplies a base message size by the calibration factor.
func scaleBytes(base int64, s float64) int64 {
	b := int64(math.Round(float64(base) * s))
	if b < 0 {
		return 0
	}
	return b
}

// Characteristics reports the measured load balance and parallel efficiency
// of a trace replayed at full speed on the platform (the paper's Table 3).
type Characteristics struct {
	LB, PE float64
	Time   float64 // original execution time at fmax
}

// Measure replays the trace at the nominal frequency and computes its
// characteristics.
func Measure(tr *trace.Trace, platform dimemas.Platform, fmax float64) (Characteristics, error) {
	return measure(tr, platform, fmax, nil)
}

func measure(tr *trace.Trace, platform dimemas.Platform, fmax float64, ctx context.Context) (Characteristics, error) {
	res, err := dimemas.Simulate(tr, platform, dimemas.Options{Beta: timemodel.DefaultBeta, FMax: fmax, Ctx: ctx})
	if err != nil {
		return Characteristics{}, err
	}
	lb, err := metrics.LoadBalance(res.Compute)
	if err != nil {
		return Characteristics{}, err
	}
	pe, err := metrics.ParallelEfficiency(res.Compute, res.Time)
	if err != nil {
		return Characteristics{}, err
	}
	return Characteristics{LB: lb, PE: pe, Time: res.Time}, nil
}

// Generate builds the calibrated trace for the instance: load balance is
// matched exactly by construction, and the communication volume is bisected
// until the replayed parallel efficiency matches the target.
//
// The trace is emitted once, as a template at scale 1 (which is the answer
// when SkipPECalibration is set). Each bisection step rewrites only the
// template's scaled message sizes in place, to scaleBytes(base, s), and
// replays it. That is sound because the replay index Simulate caches on the
// template depends only on the trace's structure (channels, collective
// counts, send slots), which no step changes, and because the byte checks
// of trace.Match (non-negative sizes, equal sizes at both ends of a message
// and across a collective) hold at every scale by construction: both ends
// of a message take their size from scaleBytes of one base. Every step
// therefore replays the same records a fresh build at that scale would, and
// its parallel efficiency is the same bits. The returned trace is a copy of
// the template at the final scale with no cached index, so its first replay
// validates it in full.
func Generate(inst Instance, cfg Config) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p, err := newPlan(inst, cfg)
	if err != nil {
		return nil, err
	}
	tpl := p.template(cfg.Iterations, scaledBy(1))
	if cfg.SkipPECalibration {
		return tpl.tr, nil
	}
	scale, err := calibrate(inst, func(s float64) (float64, error) { return tpl.pe(s, cfg) })
	if err != nil {
		return nil, err
	}
	tpl.rescale(scale)
	return tpl.clone(), nil
}

// calibrate bisects for the communication scale at which peAt, the replayed
// parallel efficiency, meets the instance's target, and returns that scale.
func calibrate(inst Instance, peAt func(scale float64) (float64, error)) (float64, error) {
	// Parallel efficiency decreases monotonically with communication
	// volume; bracket the target then bisect.
	pe0, err := peAt(0)
	if err != nil {
		return 0, err
	}
	if pe0 < inst.TargetPE {
		return 0, fmt.Errorf("workload: %s: communication-free efficiency %.4f already below target %.4f (platform too slow)",
			inst.Name, pe0, inst.TargetPE)
	}
	lo, hi := 0.0, 1.0
	for i := 0; ; i++ {
		pe, err := peAt(hi)
		if err != nil {
			return 0, err
		}
		if pe < inst.TargetPE {
			break
		}
		lo, hi = hi, hi*4
		if i == 30 {
			return 0, fmt.Errorf("workload: %s: cannot add enough communication to reach efficiency %.4f", inst.Name, inst.TargetPE)
		}
	}
	const tol = 2e-4
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		pe, err := peAt(mid)
		if err != nil {
			return 0, err
		}
		if math.Abs(pe-inst.TargetPE) < tol {
			lo, hi = mid, mid
			break
		}
		if pe > inst.TargetPE {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
