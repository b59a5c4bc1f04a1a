package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/workload"
)

// The experiments below go beyond the paper's figures: the cluster-size
// scaling study its introduction motivates, and ablations of this
// reproduction's own design choices (DESIGN.md §5).

// ScalingRow is one point of the cluster-size scaling study.
type ScalingRow struct {
	App    string
	NProcs int
	LB     float64
	Energy float64 // normalized, MAX + 6-gear set
	Time   float64
}

// Scaling evaluates how imbalance and energy saving evolve with cluster
// size (§1: "larger scale applications may have a greater load imbalance and
// therefore allow greater relative savings"), one cell per size.
func (s *Suite) Scaling(app string, sizes []int) ([]ScalingRow, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	rows := make([]ScalingRow, len(sizes))
	err = s.cells(len(sizes), func(i int) error {
		n := sizes[i]
		inst, err := workload.InstanceFor(app, n)
		if err != nil {
			return err
		}
		tr, err := s.TraceFor(inst)
		if err != nil {
			return err
		}
		res, err := analysis.Run(analysis.Config{
			Trace:     tr,
			Platform:  s.Gen.Platform,
			Set:       six,
			Algorithm: core.MAX,
			Beta:      &s.Beta,
			FMax:      s.Gen.FMax,
			Cache:     s.replays,
		})
		if err != nil {
			return err
		}
		rows[i] = ScalingRow{
			App: inst.Name, NProcs: n, LB: res.LB,
			Energy: res.Norm.Energy, Time: res.Norm.Time,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ScalingTable renders a scaling study.
func ScalingTable(app string, rows []ScalingRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Scaling study — %s (MAX, 6-gear set)", app),
		Header: []string{"instance", "processes", "LB", "energy", "time"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.NProcs), pct(r.LB), pct(r.Energy), pct(r.Time),
		})
	}
	return t
}

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Config string
	App    string
	Energy float64
	Time   float64
	EDP    float64
}

// AblateProtocol re-runs a representative subset under different eager/
// rendezvous thresholds, isolating how the p2p protocol model affects the
// reproduction (DESIGN.md §5).
func (s *Suite) AblateProtocol() ([]AblationRow, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	apps := []string{"BT-MZ-32", "CG-64", "WRF-128"}
	configs := []struct {
		name  string
		eager int64
	}{
		{"all-rendezvous", 0},
		{"default-32KiB", dimemas.DefaultPlatform().EagerLimit},
		{"all-eager", 1 << 62},
	}
	var rows []AblationRow
	for _, cfgv := range configs {
		platform := s.Gen.Platform
		platform.EagerLimit = cfgv.eager
		for _, app := range apps {
			tr, err := s.Trace(app)
			if err != nil {
				return nil, err
			}
			res, err := analysis.Run(analysis.Config{
				Trace:     tr,
				Platform:  platform,
				Set:       six,
				Algorithm: core.MAX,
				Beta:      &s.Beta,
				FMax:      s.Gen.FMax,
				Cache:     s.replays,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Config: cfgv.name, App: app,
				Energy: res.Norm.Energy, Time: res.Norm.Time, EDP: res.Norm.EDP,
			})
		}
	}
	return rows, nil
}

// AblateCollectiveModel compares the linear vs logarithmic all-to-all cost
// models on the all-to-all heavy IS instances.
func (s *Suite) AblateCollectiveModel() ([]AblationRow, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, linear := range []bool{true, false} {
		name := "linear-alltoall"
		if !linear {
			name = "log-alltoall"
		}
		platform := s.Gen.Platform
		platform.LinearAllToAll = linear
		for _, app := range []string{"IS-32", "IS-64"} {
			tr, err := s.Trace(app)
			if err != nil {
				return nil, err
			}
			res, err := analysis.Run(analysis.Config{
				Trace:     tr,
				Platform:  platform,
				Set:       six,
				Algorithm: core.MAX,
				Beta:      &s.Beta,
				FMax:      s.Gen.FMax,
				Cache:     s.replays,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Config: name, App: app,
				Energy: res.Norm.Energy, Time: res.Norm.Time, EDP: res.Norm.EDP,
			})
		}
	}
	return rows, nil
}

// AblationTable renders an ablation study.
func AblationTable(title string, rows []AblationRow) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"config", "application", "energy", "time", "EDP"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Config, r.App, pct(r.Energy), pct(r.Time), pct(r.EDP)})
	}
	return t
}
