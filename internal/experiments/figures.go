package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/gantt"
	"repro/internal/power"
	"repro/internal/workload"
)

// --- Tables 1 & 2: gear set definitions -----------------------------------

// GearSetTable lists the gears of a discrete set like the paper's tables.
func GearSetTable(set *dvfs.Set) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Gear set %s", set.Name()),
		Header: []string{"Frequency (GHz)", "Voltage (V)"},
	}
	for _, g := range set.Gears() {
		t.Rows = append(t.Rows, []string{
			strconv.FormatFloat(g.Freq, 'f', 2, 64),
			strconv.FormatFloat(g.Volt, 'f', 2, 64),
		})
	}
	return t
}

// Table1 reproduces the six-gear evenly distributed set.
func Table1() (*Table, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	return GearSetTable(six), nil
}

// Table2 reproduces the six-gear exponential set.
func Table2() (*Table, error) {
	exp, err := dvfs.Exponential(6)
	if err != nil {
		return nil, err
	}
	return GearSetTable(exp), nil
}

// --- Table 3: application characteristics ---------------------------------

// Table3Row holds measured vs. paper characteristics of one instance.
type Table3Row struct {
	App              string
	LB, PE           float64 // measured on the generated trace
	PaperLB, PaperPE float64 // Table 3 targets
}

// Table3 generates and measures every instance, one cell per instance.
func (s *Suite) Table3() ([]Table3Row, error) {
	insts := workload.Table3()
	rows := make([]Table3Row, len(insts))
	err := s.cells(len(insts), func(i int) error {
		inst := insts[i]
		tr, err := s.TraceFor(inst)
		if err != nil {
			return err
		}
		ch, err := workload.Measure(tr, s.Gen.Platform, s.Gen.FMax)
		if err != nil {
			return err
		}
		rows[i] = Table3Row{
			App: inst.Name, LB: ch.LB, PE: ch.PE,
			PaperLB: inst.TargetLB, PaperPE: inst.TargetPE,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Table renders the characteristics table.
func Table3Table(rows []Table3Row) *Table {
	t := &Table{
		Title:  "Table 3 — application characteristics (measured vs. paper)",
		Header: []string{"Application", "Load balance", "Parallel efficiency", "paper LB", "paper PE"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.App, pct(r.LB), pct(r.PE), pct(r.PaperLB), pct(r.PaperPE)})
	}
	return t
}

// --- Figure 1: BT-MZ visualization -----------------------------------------

// Figure1 renders the BT-MZ-32 execution before and after the MAX algorithm
// with the unlimited continuous set, plus the compute-density summary.
func (s *Suite) Figure1(w io.Writer) error {
	tr, err := s.Trace("BT-MZ-32")
	if err != nil {
		return err
	}
	res, err := analysis.Run(analysis.Config{
		Trace:           tr,
		Platform:        s.Gen.Platform,
		Set:             dvfs.ContinuousUnlimited(),
		Algorithm:       core.MAX,
		Beta:            &s.Beta,
		FMax:            s.Gen.FMax,
		RecordTimelines: true,
		Cache:           s.replays,
	})
	if err != nil {
		return err
	}
	opts := gantt.Options{Width: 96, MaxRanks: 16}
	fmt.Fprintf(w, "## Figure 1 — BT-MZ-32 execution (a) original\n\n")
	if err := gantt.Render(w, res.Orig.Timeline, res.Orig.Time, opts); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Figure 1 — BT-MZ-32 execution (b) after MAX algorithm\n\n")
	if err := gantt.Render(w, res.New.Timeline, res.New.Time, opts); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncompute density: original %.1f%% → after MAX %.1f%% (paper: almost all time in computation after MAX)\n\n",
		100*gantt.ComputeFraction(res.Orig.Timeline, res.Orig.Time),
		100*gantt.ComputeFraction(res.New.Timeline, res.New.Time))
	return nil
}

// --- Figure 2: different size gear sets ------------------------------------

// gearSetVariants builds the Figure 2 x-axis: unlimited and limited
// continuous sets, then uniform discrete sets with 2–15 gears.
func gearSetVariants() ([]variant, error) {
	vs := []variant{
		{name: "unlimited", set: dvfs.ContinuousUnlimited(), alg: core.MAX},
		{name: "limited", set: dvfs.ContinuousLimited(), alg: core.MAX},
	}
	for n := 2; n <= 15; n++ {
		set, err := dvfs.Uniform(n)
		if err != nil {
			return nil, err
		}
		vs = append(vs, variant{name: fmt.Sprintf("%dg", n), set: set, alg: core.MAX})
	}
	return vs, nil
}

// Figure2 sweeps gear sets over the paper's five featured applications.
func (s *Suite) Figure2() (*Sweep, error) {
	vs, err := gearSetVariants()
	if err != nil {
		return nil, err
	}
	return s.runSweep("Figure 2 — MAX algorithm across gear sets", Figure2Apps(), vs)
}

// --- Figure 3: energy as a function of load balance ------------------------

// Figure3 measures all twelve applications with the unlimited continuous,
// 2-gear and 6-gear sets.
func (s *Suite) Figure3() (*Sweep, error) {
	two, err := dvfs.Uniform(2)
	if err != nil {
		return nil, err
	}
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	vs := []variant{
		{name: "unlimited", set: dvfs.ContinuousUnlimited(), alg: core.MAX},
		{name: "2g", set: two, alg: core.MAX},
		{name: "6g", set: six, alg: core.MAX},
	}
	return s.runSweep("Figure 3 — energy vs load balance", AppNames(), vs)
}

// Figure3Table renders LB next to the three energies, sorted as given.
func Figure3Table(sw *Sweep) *Table {
	t := &Table{
		Title:  sw.Title + " — normalized CPU energy",
		Header: append([]string{"application", "LB"}, sw.Cols...),
	}
	for i, app := range sw.Apps {
		row := []string{app, pct(sw.LB[i])}
		for _, c := range sw.Cells[i] {
			row = append(row, pct(c.Energy))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// --- Figure 4: exponential gear sets ----------------------------------------

// Figure4 sweeps exponential sets with 3–7 gears over all applications.
func (s *Suite) Figure4() (*Sweep, error) {
	var vs []variant
	for n := 3; n <= 7; n++ {
		set, err := dvfs.Exponential(n)
		if err != nil {
			return nil, err
		}
		vs = append(vs, variant{name: fmt.Sprintf("exp%d", n), set: set, alg: core.MAX})
	}
	return s.runSweep("Figure 4 — exponential gear sets (MAX)", AppNames(), vs)
}

// --- Figure 5: effect of β ---------------------------------------------------

// Figure5 sweeps β from 0.3 to 1.0 with the uniform six-gear set.
func (s *Suite) Figure5() (*Sweep, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	var vs []variant
	for _, beta := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		vs = append(vs, variant{name: fmt.Sprintf("β=%.1f", beta), set: six, alg: core.MAX, beta: beta})
	}
	return s.runSweep("Figure 5 — impact of the β parameter (6-gear, MAX)", AppNames(), vs)
}

// --- Figure 6: impact of static power ---------------------------------------

// Figure6 sweeps the static power fraction from 0% to 90%.
func (s *Suite) Figure6() (*Sweep, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	var vs []variant
	for i := 0; i <= 9; i++ {
		frac := float64(i) / 10
		vs = append(vs, variant{
			name: fmt.Sprintf("%d%%", i*10),
			set:  six,
			alg:  core.MAX,
			power: power.Config{
				ActivityRatio:  power.DefaultActivityRatio,
				StaticFraction: frac,
				Nominal:        dvfs.GearAt(dvfs.FMax),
			},
		})
	}
	return s.runSweep("Figure 6 — energy as a function of static power (6-gear, MAX)", AppNames(), vs)
}

// --- Figure 7: activity factor ratio ----------------------------------------

// Figure7 sweeps the computation/communication activity ratio 1.5–3.0.
func (s *Suite) Figure7() (*Sweep, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	var vs []variant
	for _, ratio := range []float64{1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0} {
		vs = append(vs, variant{
			name: fmt.Sprintf("r=%.2f", ratio),
			set:  six,
			alg:  core.MAX,
			power: power.Config{
				ActivityRatio:  ratio,
				StaticFraction: power.DefaultStaticFraction,
				Nominal:        dvfs.GearAt(dvfs.FMax),
			},
		})
	}
	return s.runSweep("Figure 7 — impact of the activity factor ratio (6-gear, MAX)", AppNames(), vs)
}

// --- Figure 8: AVG with continuous set and over-clocking ---------------------

// Figure8 runs AVG on the limited continuous set with the top frequency
// raised by 10% and 20%.
func (s *Suite) Figure8() (*Sweep, error) {
	oc10, err := dvfs.ContinuousLimited().ScaleMax(1.10)
	if err != nil {
		return nil, err
	}
	oc20, err := dvfs.ContinuousLimited().ScaleMax(1.20)
	if err != nil {
		return nil, err
	}
	vs := []variant{
		{name: "oc10%", set: oc10, alg: core.AVG},
		{name: "oc20%", set: oc20, alg: core.AVG},
	}
	return s.runSweep("Figure 8 — AVG algorithm, continuous set with over-clocking", AppNames(), vs)
}

// --- Figure 9: AVG with the discrete set -------------------------------------

// Figure9 runs AVG on the uniform six-gear set extended with the
// (2.6 GHz, 1.6 V) over-clock gear.
func (s *Suite) Figure9() (*Sweep, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	oc, err := six.WithOverclockGear(dvfs.Gear{Freq: dvfs.OverclockFreq, Volt: dvfs.OverclockVolt})
	if err != nil {
		return nil, err
	}
	return s.runSweep("Figure 9 — AVG algorithm, 6-gear set + (2.6 GHz, 1.6 V)",
		AppNames(), []variant{{name: "AVG+oc", set: oc, alg: core.AVG}})
}

// Figure9Table renders time, energy, EDP and the over-clocked share.
func Figure9Table(sw *Sweep) *Table {
	t := &Table{
		Title:  sw.Title,
		Header: []string{"application", "Time", "Energy", "EDP", "Overclocked"},
	}
	for i, app := range sw.Apps {
		c := sw.Cells[i][0]
		t.Rows = append(t.Rows, []string{app, pct(c.Time), pct(c.Energy), pct(c.EDP), pct(c.Overclocked)})
	}
	return t
}

// --- Figure 10: MAX vs AVG ----------------------------------------------------

// Figure10 compares MAX (6-gear) with AVG (6-gear + over-clock gear).
func (s *Suite) Figure10() (*Sweep, error) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		return nil, err
	}
	oc, err := six.WithOverclockGear(dvfs.Gear{Freq: dvfs.OverclockFreq, Volt: dvfs.OverclockVolt})
	if err != nil {
		return nil, err
	}
	vs := []variant{
		{name: "MAX", set: six, alg: core.MAX},
		{name: "AVG", set: oc, alg: core.AVG},
	}
	return s.runSweep("Figure 10 — comparison of MAX and AVG", AppNames(), vs)
}

// Figure10Table renders the six series of the paper's figure.
func Figure10Table(sw *Sweep) *Table {
	t := &Table{
		Title:  sw.Title,
		Header: []string{"application", "Energy-MAX", "Energy-AVG", "Time-MAX", "Time-AVG", "EDP-MAX", "EDP-AVG"},
	}
	for i, app := range sw.Apps {
		m, a := sw.Cells[i][0], sw.Cells[i][1]
		t.Rows = append(t.Rows, []string{
			app, pct(m.Energy), pct(a.Energy), pct(m.Time), pct(a.Time), pct(m.EDP), pct(a.EDP),
		})
	}
	return t
}
