// Package experiments defines one runnable experiment per table and figure
// of the paper's evaluation (§5), plus the scaling study from the
// introduction and ablations of this reproduction's design choices. Each
// experiment prints the rows the paper reports; EXPERIMENTS.md records the
// measured values next to the paper's claims.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Suite generates and caches the twelve Table 3 application traces and runs
// analysis configurations against them. A Suite must not be shared between
// goroutines, but it can itself fan sweep cells out over a worker pool: set
// Workers > 1 to evaluate independent application×variant cells
// concurrently. Results are bit-identical to the serial run — every cell is
// an isolated, deterministic pipeline over an immutable trace.
type Suite struct {
	// Gen is the trace-generation configuration shared by all experiments.
	Gen workload.Config
	// Beta is the default memory-boundedness parameter.
	Beta float64
	// Workers bounds the number of concurrently evaluated sweep cells;
	// values below 2 mean serial execution. Trace generation always runs
	// serially (the cache is filled before fanning out).
	Workers int

	cache   map[string]*trace.Trace
	replays *dimemas.ReplayCache
}

// NewSuite builds a suite from a generation config.
func NewSuite(gen workload.Config) *Suite {
	return &Suite{
		Gen:     gen,
		Beta:    timemodel.DefaultBeta,
		cache:   map[string]*trace.Trace{},
		replays: dimemas.NewReplayCache(),
	}
}

// DefaultSuite uses the full 20-iteration generation used for the reported
// numbers, fanning sweep cells out over all available CPUs.
func DefaultSuite() *Suite {
	s := NewSuite(workload.DefaultConfig())
	s.Workers = runtime.GOMAXPROCS(0)
	return s
}

// QuickSuite trades a little calibration fidelity for speed (unit tests and
// benchmarks), fanning sweep cells out over all available CPUs.
func QuickSuite() *Suite {
	cfg := workload.DefaultConfig()
	cfg.Iterations = 5
	s := NewSuite(cfg)
	s.Workers = runtime.GOMAXPROCS(0)
	return s
}

// Platform returns the machine model the suite replays on.
func (s *Suite) Platform() dimemas.Platform { return s.Gen.Platform }

// Trace returns the calibrated trace of a Table 3 instance, generating it on
// first use.
func (s *Suite) Trace(name string) (*trace.Trace, error) {
	if tr, ok := s.cache[name]; ok {
		return tr, nil
	}
	inst, err := workload.FindInstance(name)
	if err != nil {
		return nil, err
	}
	return s.TraceFor(inst)
}

// TraceFor returns the calibrated trace of an arbitrary instance (including
// interpolated ones), generating and caching it on first use.
func (s *Suite) TraceFor(inst workload.Instance) (*trace.Trace, error) {
	if tr, ok := s.cache[inst.Name]; ok {
		return tr, nil
	}
	tr, err := workload.Generate(inst, s.Gen)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", inst.Name, err)
	}
	s.cache[inst.Name] = tr
	return tr, nil
}

// AppNames returns the twelve Table 3 instance names in the paper's order.
func AppNames() []string {
	insts := workload.Table3()
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.Name
	}
	return out
}

// Figure2Apps returns the five applications shown in the paper's Figure 2
// ("results are given for five applications due to space limitation").
func Figure2Apps() []string {
	return []string{"BT-MZ-32", "CG-64", "SPECFEM3D-96", "PEPC-128", "WRF-128"}
}

// variant is one analysis configuration of a sweep: a labeled combination
// of gear set, algorithm, β and power model.
type variant struct {
	name  string
	set   *dvfs.Set
	alg   core.Algorithm
	beta  float64
	power power.Config
}

// analyze runs one variant against one application trace.
func (s *Suite) analyze(app string, v variant) (*analysis.Result, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	return analysis.Run(s.variantConfig(tr, v))
}

// variantConfig assembles the analysis configuration of one sweep cell,
// threading the suite's shared baseline-replay cache.
func (s *Suite) variantConfig(tr *trace.Trace, v variant) analysis.Config {
	beta := v.beta
	if beta == 0 {
		beta = s.Beta
	}
	return analysis.Config{
		Trace:     tr,
		Platform:  s.Gen.Platform,
		Power:     v.power,
		Set:       v.set,
		Algorithm: v.alg,
		Beta:      &beta,
		FMax:      s.Gen.FMax,
		Cache:     s.replays,
	}
}

// Cell is one measured outcome of a sweep: normalized energy, time and EDP,
// plus the fraction of over-clocked CPUs for AVG runs.
type Cell struct {
	Energy, Time, EDP float64
	Overclocked       float64
}

// Sweep is a generic applications × variants result grid; every figure of
// the paper reduces to one.
type Sweep struct {
	Title string
	Apps  []string
	Cols  []string
	// Cells is indexed [app][variant].
	Cells [][]Cell
	// LB is the measured original load balance per application.
	LB []float64
}

// runSweep evaluates all variants over all apps, optionally fanning the
// independent cells out over Suite.Workers goroutines. Results are
// bit-identical to the serial run regardless of Workers: every cell is an
// isolated, deterministic pipeline, and the shared baseline replays are
// memoized values that do not depend on evaluation order. On failure the
// pool stops dispatching and the error of the first failing cell in serial
// (row-major) order is returned, matching what the serial loop reports.
func (s *Suite) runSweep(title string, apps []string, variants []variant) (*Sweep, error) {
	sw := &Sweep{Title: title, Apps: apps}
	for _, v := range variants {
		sw.Cols = append(sw.Cols, v.name)
	}
	sw.Cells = make([][]Cell, len(apps))
	sw.LB = make([]float64, len(apps))
	for i := range apps {
		sw.Cells[i] = make([]Cell, len(variants))
	}

	// Trace generation mutates the cache: do it serially, up front.
	for _, app := range apps {
		if _, err := s.Trace(app); err != nil {
			return nil, err
		}
	}

	run := func(i, j int) error {
		res, err := s.analyzeConcurrent(apps[i], variants[j])
		if err != nil {
			return fmt.Errorf("experiments: %s / %s: %w", apps[i], variants[j].name, err)
		}
		sw.Cells[i][j] = Cell{
			Energy:      res.Norm.Energy,
			Time:        res.Norm.Time,
			EDP:         res.Norm.EDP,
			Overclocked: res.Assignment.OverclockedFraction(),
		}
		if j == 0 {
			// LB comes from the original execution, which is identical for
			// every variant of an app; writing it from one designated cell
			// keeps the parallel path free of shared writes.
			sw.LB[i] = res.LB
		}
		return nil
	}

	if s.Workers < 2 {
		for i := range apps {
			for j := range variants {
				if err := run(i, j); err != nil {
					return nil, err
				}
			}
		}
		return sw, nil
	}

	// Worker pool over the flattened cell grid. Each cell writes only its
	// own pre-allocated slots. Dispatch stops at the first observed error
	// instead of draining the whole grid; every job dispatched before the
	// stop still completes, which guarantees the earliest failing cell in
	// dispatch order is always evaluated and therefore deterministically
	// reported (any error observed before it would have to come from an
	// even earlier cell).
	type job struct{ i, j int }
	jobs := make(chan job)
	errs := make([]error, len(apps)*len(variants))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < s.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if err := run(jb.i, jb.j); err != nil {
					errs[jb.i*len(variants)+jb.j] = err
					failed.Store(true)
				}
			}
		}()
	}
dispatch:
	for i := range apps {
		for j := range variants {
			if failed.Load() {
				break dispatch
			}
			jobs <- job{i, j}
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// analyzeConcurrent is analyze without trace-cache mutation, safe to call
// from sweep workers: the trace must already be generated (runSweep
// guarantees it).
func (s *Suite) analyzeConcurrent(app string, v variant) (*analysis.Result, error) {
	tr, ok := s.cache[app]
	if !ok {
		return nil, fmt.Errorf("experiments: trace %s not pre-generated", app)
	}
	return analysis.Run(s.variantConfig(tr, v))
}

// Cell returns the sweep cell for an app/column pair.
func (sw *Sweep) Cell(app, col string) (Cell, error) {
	i := index(sw.Apps, app)
	j := index(sw.Cols, col)
	if i < 0 || j < 0 {
		return Cell{}, fmt.Errorf("experiments: no cell (%q, %q)", app, col)
	}
	return sw.Cells[i][j], nil
}

func index(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}
