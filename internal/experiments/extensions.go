package experiments

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/gearopt"
	"repro/internal/jitter"
	"repro/internal/phased"
	"repro/internal/trace"
)

// Extension experiments: the dynamic Jitter runtime the paper's MAX
// algorithm is the static version of, the per-phase assignment the paper's
// PEPC discussion points at, the gear-quantization rounding ablation, and
// the constructive gear-placement search.

// JitterRow compares the adaptive runtime with the static MAX assignment.
type JitterRow struct {
	App           string
	DynamicEnergy float64
	DynamicTime   float64
	StaticEnergy  float64
	StaticTime    float64
	GearSwitches  int
}

// JitterVsStatic runs both systems over every Table 3 instance with the
// uniform six-gear set, one cell per instance. Jitter runs without the
// suite's replay cache: no other cell replays its per-iteration slices, so
// memoizing their skeletons would only hold them until the suite is dropped.
func (s *Suite) JitterVsStatic() ([]JitterRow, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	apps := AppNames()
	rows := make([]JitterRow, len(apps))
	err = s.cells(len(apps), func(i int) error {
		app := apps[i]
		tr, err := s.Trace(app)
		if err != nil {
			return err
		}
		dyn, err := jitter.Run(jitter.Config{
			Trace:    tr,
			Platform: s.Gen.Platform,
			Set:      six,
			Beta:     &s.Beta,
			FMax:     s.Gen.FMax,
		})
		if err != nil {
			return fmt.Errorf("experiments: jitter on %s: %w", app, err)
		}
		static, err := s.analyze(app, variant{name: "MAX", set: six, alg: core.MAX})
		if err != nil {
			return err
		}
		rows[i] = JitterRow{
			App:           app,
			DynamicEnergy: dyn.Norm.Energy,
			DynamicTime:   dyn.Norm.Time,
			StaticEnergy:  static.Norm.Energy,
			StaticTime:    static.Norm.Time,
			GearSwitches:  dyn.GearSwitches,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// JitterTable renders the comparison.
func JitterTable(rows []JitterRow) *Table {
	t := &Table{
		Title:  "Extension — adaptive Jitter runtime vs static MAX (6-gear set)",
		Header: []string{"application", "E-jitter", "E-MAX", "T-jitter", "T-MAX", "gear switches"},
		Notes: []string{
			"MAX is the static form of Jitter (paper §1); the online runtime pays a convergence tax.",
			"PEPC defeats the per-iteration slack controller for the same reason it defeats MAX: two phases per iteration with opposite imbalance (see the 'phased' experiment).",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, pct(r.DynamicEnergy), pct(r.StaticEnergy),
			pct(r.DynamicTime), pct(r.StaticTime), fmt.Sprintf("%d", r.GearSwitches),
		})
	}
	return t
}

// PhasedRow compares per-process MAX with per-phase MAX.
type PhasedRow struct {
	App              string
	Phases           int
	PerProcessEnergy float64
	PerProcessTime   float64
	PerPhaseEnergy   float64
	PerPhaseTime     float64
}

// PerPhaseStudy runs the per-phase extension on a representative subset
// including the paper's problem case PEPC-128.
func (s *Suite) PerPhaseStudy() ([]PhasedRow, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	var rows []PhasedRow
	for _, app := range []string{"PEPC-128", "BT-MZ-32", "IS-64", "WRF-128"} {
		tr, err := s.Trace(app)
		if err != nil {
			return nil, err
		}
		perProc, err := s.analyze(app, variant{name: "MAX", set: six, alg: core.MAX})
		if err != nil {
			return nil, err
		}
		perPhase, err := phased.Run(phased.Config{
			Trace:    tr,
			Platform: s.Gen.Platform,
			Set:      six,
			Beta:     &s.Beta,
			FMax:     s.Gen.FMax,
			Cache:    s.replays,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: phased on %s: %w", app, err)
		}
		rows = append(rows, PhasedRow{
			App:              app,
			Phases:           perPhase.Phases,
			PerProcessEnergy: perProc.Norm.Energy,
			PerProcessTime:   perProc.Norm.Time,
			PerPhaseEnergy:   perPhase.Norm.Energy,
			PerPhaseTime:     perPhase.Norm.Time,
		})
	}
	return rows, nil
}

// PhasedTable renders the per-phase study.
func PhasedTable(rows []PhasedRow) *Table {
	t := &Table{
		Title:  "Extension — per-phase DVFS (future work from the paper's PEPC discussion)",
		Header: []string{"application", "phases", "E per-process", "E per-phase", "T per-process", "T per-phase"},
		Notes:  []string{"PEPC's time inflation under a single per-process setting disappears with per-phase gears."},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.Phases),
			pct(r.PerProcessEnergy), pct(r.PerPhaseEnergy),
			pct(r.PerProcessTime), pct(r.PerPhaseTime),
		})
	}
	return t
}

// AblateRounding compares the paper's closest-higher quantization with
// nearest-gear quantization on all apps with the six-gear set.
func (s *Suite) AblateRounding() ([]AblationRow, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, mode := range []core.Rounding{core.RoundUp, core.RoundNearest} {
		for _, app := range []string{"BT-MZ-32", "SPECFEM3D-96", "WRF-128"} {
			tr, err := s.Trace(app)
			if err != nil {
				return nil, err
			}
			res, err := analysis.Run(analysis.Config{
				Trace:     tr,
				Platform:  s.Gen.Platform,
				Set:       six,
				Algorithm: core.MAX,
				Beta:      &s.Beta,
				FMax:      s.Gen.FMax,
				Rounding:  mode,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Config: "round-" + mode.String(), App: app,
				Energy: res.Norm.Energy, Time: res.Norm.Time, EDP: res.Norm.EDP,
			})
		}
	}
	return rows, nil
}

// OptimizeGears searches a four-gear placement over three representative
// applications and reports it against the uniform four-gear set.
func (s *Suite) OptimizeGears(w io.Writer) error {
	var traces []*trace.Trace
	for _, app := range []string{"BT-MZ-32", "IS-64", "SPECFEM3D-96"} {
		tr, err := s.Trace(app)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	res, err := gearopt.Optimize(gearopt.Config{
		Traces:   traces,
		NGears:   4,
		Platform: s.Gen.Platform,
		Beta:     &s.Beta,
		FMax:     s.Gen.FMax,
		Grid:     0.1,
		Cache:    s.replays,
	})
	if err != nil {
		return err
	}
	t := &Table{
		Title:  "Extension — optimized 4-gear placement (coordinate descent)",
		Header: []string{"set", "gears", "avg energy"},
	}
	uniform, err := dvfs.Uniform(4)
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows,
		[]string{"uniform", uniform.String(), pct(res.UniformEnergy)},
		[]string{"optimized", res.Set.String(), pct(res.Energy)},
	)
	t.Notes = append(t.Notes, fmt.Sprintf("search: %d rounds, %d candidate evaluations", res.Rounds, res.Evaluations))
	return t.Write(w)
}
