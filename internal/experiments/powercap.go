package experiments

import (
	"fmt"
	"io"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/powercap"
)

// Power-cap extension: the inverse of the paper's scenario. Instead of
// down-gearing under unbounded power, a fixed cluster power budget is
// redistributed across ranks to minimize execution time (Medhat et al.,
// PAPERS.md). Every candidate schedule is scored by retiming the shared
// timing skeleton, so a whole cap sweep costs little more than one replay.

// PowercapRow is one cap point of the budget-constrained scheduling sweep.
type PowercapRow struct {
	// CapFrac is the budget as a fraction of the uncapped all-compute peak;
	// Cap is the same budget in model watts.
	CapFrac, Cap float64
	// Peak is the redistributed schedule's exact profile peak (always ≤ Cap).
	Peak float64
	// UniTime/UniEnergy and RedTime/RedEnergy are each policy's execution
	// time and CPU energy normalized to the uncapped run.
	UniTime, UniEnergy float64
	RedTime, RedEnergy float64
	// Evaluations counts exact candidate replays for the row.
	Evaluations int
}

// DefaultPowercapFracs are the sweep's cap points: eight budgets from 40%
// to 80% of the uncapped peak cluster power.
func DefaultPowercapFracs() []float64 {
	return []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80}
}

// PowercapSweep schedules one application under every cap fraction with
// both policies, one cell per cap fraction, sharing the suite's replay cache
// (one skeleton and one baseline for the whole sweep).
func (s *Suite) PowercapSweep(app string, fracs []float64) ([]PowercapRow, error) {
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
	uncappedPeak := float64(tr.NumRanks()) * pm.Power(power.Compute, dvfs.GearAt(s.Gen.FMax))
	rows := make([]PowercapRow, len(fracs))
	err = s.cells(len(fracs), func(i int) error {
		frac := fracs[i]
		res, err := powercap.Run(powercap.Config{
			Trace:    tr,
			Platform: s.Gen.Platform,
			Set:      six,
			Cap:      frac * uncappedPeak,
			Beta:     &s.Beta,
			FMax:     s.Gen.FMax,
			Cache:    s.replays,
		})
		if err != nil {
			return fmt.Errorf("experiments: powercap %s at %.0f%%: %w", app, frac*100, err)
		}
		rows[i] = PowercapRow{
			CapFrac:     frac,
			Cap:         res.Cap,
			Peak:        res.Redistributed.PeakPower,
			UniTime:     res.Uniform.NormTime,
			UniEnergy:   res.Uniform.NormEnergy,
			RedTime:     res.Redistributed.NormTime,
			RedEnergy:   res.Redistributed.NormEnergy,
			Evaluations: res.Evaluations,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PowercapTable renders one application's cap sweep.
func PowercapTable(app string, rows []PowercapRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Extension — power-cap gear scheduling, %s (peak budget, 6-gear set)", app),
		Header: []string{"cap", "cap (W)", "peak (W)", "T uniform", "T redistr", "E uniform", "E redistr", "evals"},
		Notes: []string{
			"cap: peak cluster power budget as a fraction of the uncapped all-compute peak.",
			"peak: exact profile peak of the redistributed schedule — never above the cap.",
			"T/E: execution time and CPU energy normalized to the uncapped (all-FMax) run.",
			"redistribution takes power from slack-rich ranks first, so the critical rank keeps its gear longer than under uniform downshift.",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			pct(r.CapFrac),
			fmt.Sprintf("%.1f", r.Cap),
			fmt.Sprintf("%.1f", r.Peak),
			pct(r.UniTime), pct(r.RedTime),
			pct(r.UniEnergy), pct(r.RedEnergy),
			fmt.Sprintf("%d", r.Evaluations),
		})
	}
	return t
}

// PowercapStudy runs the cap sweep for the two large imbalanced instances
// the redistribution policy is built for.
func (s *Suite) PowercapStudy(w io.Writer) error {
	for _, app := range []string{"WRF-128", "SPECFEM3D-96"} {
		rows, err := s.PowercapSweep(app, DefaultPowercapFracs())
		if err != nil {
			return err
		}
		if err := PowercapTable(app, rows).Write(w); err != nil {
			return err
		}
	}
	return nil
}
