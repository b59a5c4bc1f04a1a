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
	"repro/internal/memo"
	"repro/internal/power"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Suite generates and caches the twelve Table 3 application traces and runs
// analysis configurations against them. A Suite is safe for concurrent use,
// and it fans its own experiments out over a deterministic cell pool (see
// cells): set Workers > 1 to evaluate the independent cells of an
// experiment concurrently. Reports are bit-identical at every worker count:
// every cell is an isolated, deterministic pipeline over an immutable trace,
// writes only its own result slot, and the shared trace and replay memos
// hold values that do not depend on the order an experiment's cells run in.
type Suite struct {
	// Gen is the trace-generation configuration shared by all experiments.
	Gen workload.Config
	// Beta is the default memory-boundedness parameter.
	Beta float64
	// Workers bounds the number of concurrently evaluated experiment cells
	// (trace generations, sweep cells, cap points, policy arms); values
	// below 2 mean serial execution.
	Workers int

	cache   *memo.Cache[string, *trace.Trace]
	replays *dimemas.ReplayCache
}

// NewSuite builds a suite from a generation config.
func NewSuite(gen workload.Config) *Suite {
	return &Suite{
		Gen:     gen,
		Beta:    timemodel.DefaultBeta,
		cache:   memo.New[string, *trace.Trace](0),
		replays: dimemas.NewReplayCache(),
	}
}

// DefaultSuite uses the full 20-iteration generation used for the reported
// numbers, fanning experiment cells out over all available CPUs.
func DefaultSuite() *Suite {
	s := NewSuite(workload.DefaultConfig())
	s.Workers = runtime.GOMAXPROCS(0)
	return s
}

// QuickSuite trades a little calibration fidelity for speed (unit tests and
// benchmarks), fanning experiment cells out over all available CPUs.
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
	inst, err := workload.FindInstance(name)
	if err != nil {
		return nil, err
	}
	return s.TraceFor(inst)
}

// TraceFor returns the calibrated trace of an arbitrary instance (including
// interpolated ones), generating it on first use. Traces are memoized by
// instance name, and concurrent first uses of one name share one
// generation; workload.Interpolate returns the Table 3 instance itself for
// a Table 3 (app, count) pair, so a name always means one instance.
func (s *Suite) TraceFor(inst workload.Instance) (*trace.Trace, error) {
	return s.cache.Do(nil, inst.Name, func() (*trace.Trace, error) {
		tr, err := workload.Generate(inst, s.Gen)
		if err != nil {
			return nil, fmt.Errorf("experiments: generating %s: %w", inst.Name, err)
		}
		return tr, nil
	})
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

// variantConfig assembles the analysis configuration of one sweep cell on
// the suite's shared replay cache. One skeleton recording and one baseline
// per trace serve every β, so a variant at an off-default β (Figure 5's
// sweep) memoizes nothing new: it retimes the app's default-β recording.
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

// runSweep evaluates all variants over all apps as one cell per
// app×variant pair, in row-major order (see cells): results are
// bit-identical at every worker count, and on failure the error of the
// first failing cell in row-major order is returned.
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
	err := s.cells(len(apps)*len(variants), func(k int) error {
		i, j := k/len(variants), k%len(variants)
		tr, err := s.Trace(apps[i])
		if err != nil {
			return err
		}
		res, err := analysis.Run(s.variantConfig(tr, variants[j]))
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
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// cells evaluates run(0), …, run(n-1), the independent cells of one
// experiment, over a pool of up to Workers goroutines; Workers < 2 runs them
// serially in index order. Each cell must write only its own pre-allocated
// result slot. Workers claim cells in index order from a shared counter and
// stop claiming at the first observed failure; a claimed cell always runs
// to completion. Every cell below the lowest failing index is therefore
// claimed before it and run, and that lowest index's error is returned:
// the same error the serial loop reports.
func (s *Suite) cells(n int, run func(i int) error) error {
	workers := min(s.Workers, n)
	if workers < 2 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
