package powercap

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/trace"
)

// imbalancedTrace builds the golden scheduling case: rank 0 carries a 4 s
// load, ranks 1–3 carry 1 s, synchronized by a barrier each iteration. A
// tight cap forces uniform downshift to slow the critical rank, while
// redistribution can keep rank 0 fast by taking power from the others.
func imbalancedTrace(iters int) *trace.Trace {
	tr := trace.New("golden", 4)
	loads := []float64{4.0, 1.0, 1.0, 1.0}
	for it := 0; it < iters; it++ {
		for r, w := range loads {
			tr.Add(r, trace.Compute(w))
		}
		for r := 0; r < 4; r++ {
			tr.Add(r, trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	return tr
}

func sixGears(t *testing.T) *dvfs.Set {
	t.Helper()
	set, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// computePower returns the compute-phase power of one rank at frequency f
// under the default model (for cap arithmetic in tests).
func computePower(t *testing.T, f float64) float64 {
	t.Helper()
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pm.Power(power.Compute, dvfs.GearAt(f))
}

func TestRedistributionBeatsUniformUnderTightPeakCap(t *testing.T) {
	tr := imbalancedTrace(3)
	set := sixGears(t)
	cap := 0.55 * 4 * computePower(t, dvfs.FMax)
	res, err := Run(Config{Trace: tr, Set: set, Cap: cap, Cache: dimemas.NewReplayCache()})
	if err != nil {
		t.Fatal(err)
	}

	// Both schedules respect the cap: the reported peak is the exact
	// profile peak and must never exceed the budget.
	for _, sched := range []Schedule{res.Uniform, res.Redistributed} {
		if sched.PeakPower > cap {
			t.Errorf("%s peak %v exceeds cap %v", sched.Policy, sched.PeakPower, cap)
		}
		if sched.OverCapSeconds != 0 {
			t.Errorf("%s spends %v s above a peak cap", sched.Policy, sched.OverCapSeconds)
		}
		if sched.Time < res.Uncapped.Time {
			t.Errorf("%s time %v beats the uncapped run %v", sched.Policy, sched.Time, res.Uncapped.Time)
		}
	}

	// Redistribution strictly beats uniform downshift on this imbalance:
	// uniform must slow every rank (including the critical one) to fit the
	// budget; redistribution keeps rank 0 at the top gear and pays by
	// parking the slack-rich ranks.
	if res.Redistributed.Time >= res.Uniform.Time {
		t.Errorf("redistributed time %v should beat uniform %v", res.Redistributed.Time, res.Uniform.Time)
	}
	if f := res.Redistributed.Gears[0].Freq; f != dvfs.FMax {
		t.Errorf("critical rank gear = %v GHz, want FMax", f)
	}
	for r := 1; r < 4; r++ {
		if f := res.Redistributed.Gears[r].Freq; f >= dvfs.FMax {
			t.Errorf("slack rank %d kept %v GHz", r, f)
		}
	}
	// Uniform is uniform, at the highest level whose all-compute power
	// fits: one step up must violate the budget.
	lvl := res.Uniform.Gears[0].Freq
	for r, g := range res.Uniform.Gears {
		if g.Freq != lvl {
			t.Errorf("uniform rank %d at %v, want %v", r, g.Freq, lvl)
		}
	}
	gears := set.Gears()
	for i, g := range gears {
		if g.Freq == lvl && i+1 < len(gears) {
			if up := 4 * computePower(t, gears[i+1].Freq); up <= cap {
				t.Errorf("uniform level %v is not maximal: %v would fit cap %v", lvl, gears[i+1].Freq, cap)
			}
		}
	}
	if res.Evaluations == 0 {
		t.Error("no candidate evaluations recorded")
	}
}

// TestRunFreshBitIdentical holds the skeleton-retimed scheduler against
// RunFresh, which scores every candidate by a fresh simulation: schedules,
// scores and the uncapped reference must agree bit for bit.
func TestRunFreshBitIdentical(t *testing.T) {
	tr := imbalancedTrace(2)
	set := sixGears(t)
	// The input of rebalance's capped re-solve: the base iteration with
	// drifted per-rank loads written onto it (trace.ScaleCompute), on a
	// machine with per-rank capability scales.
	base, err := tr.Slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	drift := []float64{0.7, 1.3, 1.1, 0.9}
	drifted := base.ScaleCompute(func(r int, _ trace.Record) float64 { return drift[r] })
	cases := []struct {
		name    string
		tr      *trace.Trace
		machine *dimemas.Machine
		kind    CapKind
		cap     float64
	}{
		{"peak", tr, nil, CapPeak, 0.6 * 4 * computePower(t, dvfs.FMax)},
		{"average", tr, nil, CapAverage, 0.6 * 4 * computePower(t, dvfs.FMax)},
		{"capped re-solve", drifted, heteroMachine(), CapPeak, 0.6 * 5 * computePower(t, dvfs.FMax)},
	}
	for _, tc := range cases {
		cfg := Config{Trace: tc.tr, Machine: tc.machine, Set: set, Cap: tc.cap, Kind: tc.kind}
		fresh, err := RunFresh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = dimemas.NewReplayCache()
		cached, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct{ a, b Schedule }{
			{cached.Uniform, fresh.Uniform},
			{cached.Redistributed, fresh.Redistributed},
		} {
			if pair.a.Time != pair.b.Time || pair.a.Energy != pair.b.Energy ||
				pair.a.PeakPower != pair.b.PeakPower {
				t.Errorf("%s/%s: retimed %+v != simulated %+v", tc.name, pair.a.Policy, pair.a, pair.b)
			}
			for r := range pair.a.Gears {
				if pair.a.Gears[r] != pair.b.Gears[r] {
					t.Errorf("%s/%s: rank %d gear %v != %v", tc.name, pair.a.Policy, r, pair.a.Gears[r], pair.b.Gears[r])
				}
			}
		}
		if cached.Uncapped != fresh.Uncapped {
			t.Errorf("%s: uncapped reference %+v != %+v", tc.name, cached.Uncapped, fresh.Uncapped)
		}
		if cached.Evaluations != fresh.Evaluations {
			t.Errorf("%s: %d evaluations retimed, %d simulated", tc.name, cached.Evaluations, fresh.Evaluations)
		}
	}
}

func TestPeakCapSweepRespectsCapOnEveryRow(t *testing.T) {
	tr := imbalancedTrace(2)
	set := sixGears(t)
	cache := dimemas.NewReplayCache()
	uncappedPeak := 4 * computePower(t, dvfs.FMax)
	for _, frac := range []float64{0.30, 0.40, 0.45, 0.50, 0.55, 0.60, 0.70, 0.80, 0.90, 1.00} {
		cap := frac * uncappedPeak
		res, err := Run(Config{Trace: tr, Set: set, Cap: cap, Cache: cache})
		if err != nil {
			t.Fatalf("cap %.0f%%: %v", frac*100, err)
		}
		if res.Uniform.PeakPower > cap || res.Redistributed.PeakPower > cap {
			t.Errorf("cap %.0f%%: peaks %v / %v exceed %v", frac*100, res.Uniform.PeakPower, res.Redistributed.PeakPower, cap)
		}
		if res.Redistributed.Time > res.Uniform.Time {
			t.Errorf("cap %.0f%%: redistribution %v worse than uniform %v", frac*100, res.Redistributed.Time, res.Uniform.Time)
		}
		if res.Redistributed.Time == res.Uniform.Time && res.Redistributed.Energy > res.Uniform.Energy {
			t.Errorf("cap %.0f%%: redistribution loses the energy tiebreak: %v vs %v", frac*100, res.Redistributed.Energy, res.Uniform.Energy)
		}
	}
	// The whole sweep shares one recording: the skeleton and its timeline
	// baseline.
	if st := cache.Stats(); st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one recording) across the sweep", st.Misses)
	}
}

func TestAverageCapMode(t *testing.T) {
	tr := imbalancedTrace(2)
	set := sixGears(t)
	// An average cap at 50% of the uncapped average power: instantaneous
	// power may exceed it (OverCapSeconds ≥ 0), the time average must not.
	probe, err := Run(Config{Trace: tr, Set: set, Cap: 1e6, Kind: CapAverage, Cache: dimemas.NewReplayCache()})
	if err != nil {
		t.Fatal(err)
	}
	cap := 0.5 * probe.Uncapped.AveragePower
	res, err := Run(Config{Trace: tr, Set: set, Cap: cap, Kind: CapAverage, Cache: dimemas.NewReplayCache()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{res.Uniform, res.Redistributed} {
		if sched.AveragePower > cap {
			t.Errorf("%s average power %v exceeds cap %v", sched.Policy, sched.AveragePower, cap)
		}
		if sched.AveragePower != sched.Energy/sched.Time {
			t.Errorf("%s average power %v != energy/time %v", sched.Policy, sched.AveragePower, sched.Energy/sched.Time)
		}
		if sched.OverCapSeconds < 0 || sched.OverCapSeconds > sched.Time {
			t.Errorf("%s exceedance %v outside [0, %v]", sched.Policy, sched.OverCapSeconds, sched.Time)
		}
	}
	if res.Redistributed.Time > res.Uniform.Time {
		t.Errorf("redistribution %v worse than uniform %v", res.Redistributed.Time, res.Uniform.Time)
	}
}

// TestBetaZeroPrefersEnergy: with β = 0 every gear level has the identical
// execution time, so the lexicographic (time, energy) objective must pick
// the bottom gear everywhere — the energy tiebreaker at work, and the
// explicit-zero Beta contract honored end to end.
func TestBetaZeroPrefersEnergy(t *testing.T) {
	tr := imbalancedTrace(2)
	set := sixGears(t)
	cap := 4 * computePower(t, dvfs.FMax) // loose: even all-top fits
	res, err := Run(Config{Trace: tr, Set: set, Cap: cap, Beta: betaPtr(0), Cache: dimemas.NewReplayCache()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Uniform.Time != res.Uncapped.Time {
		t.Errorf("β=0 uniform time %v != uncapped %v", res.Uniform.Time, res.Uncapped.Time)
	}
	for r, g := range res.Uniform.Gears {
		if g.Freq != dvfs.FMin {
			t.Errorf("β=0 uniform rank %d at %v, want the bottom gear", r, g.Freq)
		}
	}
	for r, g := range res.Redistributed.Gears {
		if g.Freq != dvfs.FMin {
			t.Errorf("β=0 redistributed rank %d at %v, want the bottom gear", r, g.Freq)
		}
	}
}

func TestInfeasibleCap(t *testing.T) {
	tr := imbalancedTrace(1)
	set := sixGears(t)
	for _, kind := range []CapKind{CapPeak, CapAverage} {
		_, err := Run(Config{Trace: tr, Set: set, Cap: 1e-6, Kind: kind, Cache: dimemas.NewReplayCache()})
		if !errors.Is(err, ErrCapInfeasible) {
			t.Errorf("%s: got %v, want ErrCapInfeasible", kind, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	tr := imbalancedTrace(1)
	set := sixGears(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil trace", Config{Set: set, Cap: 1}},
		{"nil set", Config{Trace: tr, Cap: 1}},
		{"continuous set", Config{Trace: tr, Set: dvfs.ContinuousLimited(), Cap: 1}},
		{"zero cap", Config{Trace: tr, Set: set}},
		{"negative cap", Config{Trace: tr, Set: set, Cap: -1}},
		{"nan cap", Config{Trace: tr, Set: set, Cap: math.NaN()}},
		{"inf cap", Config{Trace: tr, Set: set, Cap: math.Inf(1)}},
		{"bad kind", Config{Trace: tr, Set: set, Cap: 1, Kind: CapKind(7)}},
		{"negative beta", Config{Trace: tr, Set: set, Cap: 1, Beta: betaPtr(-0.5)}},
		{"beta above one", Config{Trace: tr, Set: set, Cap: 1, Beta: betaPtr(1.5)}},
		{"negative fmax", Config{Trace: tr, Set: set, Cap: 1, FMax: -2}},
		{"negative moves", Config{Trace: tr, Set: set, Cap: 1, MaxMoves: -1}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{
		Trace: imbalancedTrace(2),
		Set:   sixGears(t),
		Cap:   0.5 * 4 * computePower(t, dvfs.FMax),
		Ctx:   ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// heteroMachine builds the capability layer used by the heterogeneity tests:
// rank 0 draws double power and rank 3's silicon tops out at 1.4 GHz.
func heteroMachine() *dimemas.Machine {
	return &dimemas.Machine{Cap: &dimemas.Capability{
		PowerScale: []float64{2, 1, 1, 1},
		FMax:       []float64{0, 0, 0, 1.4},
	}}
}

func TestHeterogeneousMachineScheduling(t *testing.T) {
	tr := imbalancedTrace(2)
	set := sixGears(t)
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scales := []float64{2, 1, 1, 1}
	// 60 % of the machine's scaled all-top compute draw: tight enough to
	// force scheduling, loose enough to stay feasible.
	cap := 0.6 * 5 * computePower(t, dvfs.FMax)
	res, err := Run(Config{Trace: tr, Machine: heteroMachine(), Set: set, Cap: cap, Cache: dimemas.NewReplayCache()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{res.Uniform, res.Redistributed} {
		// Rank 3's gear never exceeds its capability ceiling.
		if f := sched.Gears[3].Freq; f > 1.4+1e-9 {
			t.Errorf("%s assigns capped rank 3 %v GHz above its 1.4 GHz ceiling", sched.Policy, f)
		}
		// The scaled all-compute bound (what CapPeak constrains) holds.
		var bound float64
		for r, g := range sched.Gears {
			bound += scales[r] * pm.Power(power.Compute, g)
		}
		if bound > cap+1e-9 {
			t.Errorf("%s scaled peak bound %v exceeds cap %v", sched.Policy, bound, cap)
		}
		if sched.PeakPower > cap+1e-9 {
			t.Errorf("%s profile peak %v exceeds cap %v", sched.Policy, sched.PeakPower, cap)
		}
	}
	if res.Redistributed.Time > res.Uniform.Time {
		t.Errorf("redistributed time %v worse than uniform %v", res.Redistributed.Time, res.Uniform.Time)
	}

	// The machine path is bit-identical between retimed and fresh replays,
	// exactly like the flat path.
	fresh, err := RunFresh(Config{Trace: tr, Machine: heteroMachine(), Set: set, Cap: cap})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct{ a, b Schedule }{
		{res.Uniform, fresh.Uniform},
		{res.Redistributed, fresh.Redistributed},
	} {
		if pair.a.Time != pair.b.Time || pair.a.Energy != pair.b.Energy {
			t.Errorf("%s: retimed (%v, %v) != simulated (%v, %v)",
				pair.a.Policy, pair.a.Time, pair.a.Energy, pair.b.Time, pair.b.Energy)
		}
		for r := range pair.a.Gears {
			if pair.a.Gears[r] != pair.b.Gears[r] {
				t.Errorf("%s: rank %d gear %v != %v", pair.a.Policy, r, pair.a.Gears[r], pair.b.Gears[r])
			}
		}
	}
}

// TestHeterogeneousInfeasibilityUsesScaledFloor: a cap between the
// homogeneous all-bottom floor and the scaled one must be infeasible on the
// heterogeneous machine while remaining feasible on the flat one.
func TestHeterogeneousInfeasibilityUsesScaledFloor(t *testing.T) {
	tr := imbalancedTrace(1)
	set := sixGears(t)
	bottom := computePower(t, dvfs.FMin)
	cap := 4.5 * bottom // flat floor is 4·bottom, scaled floor 5·bottom
	if _, err := Run(Config{Trace: tr, Set: set, Cap: cap, Cache: dimemas.NewReplayCache()}); err != nil {
		t.Fatalf("flat machine should fit cap %v: %v", cap, err)
	}
	_, err := Run(Config{Trace: tr, Machine: heteroMachine(), Set: set, Cap: cap, Cache: dimemas.NewReplayCache()})
	if !errors.Is(err, ErrCapInfeasible) {
		t.Errorf("got %v, want ErrCapInfeasible on the scaled floor", err)
	}
}

// TestCapKindNames pins the wire names over the count-derived range: every
// valid kind must have a real name (not the fallback formatting), so a kind
// added above capKindCount cannot ship nameless.
func TestCapKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := CapPeak; k <= maxCapKind; k++ {
		s := k.String()
		if strings.HasPrefix(s, "CapKind(") {
			t.Fatalf("cap kind %d has no wire name", int(k))
		}
		if seen[s] {
			t.Fatalf("duplicate wire name %q", s)
		}
		seen[s] = true
	}
	if s := CapKind(capKindCount).String(); !strings.HasPrefix(s, "CapKind(") {
		t.Errorf("out-of-range kind stringified as %q, want the CapKind(n) fallback", s)
	}
}

// betaPtr returns an explicit β for a config's optional Beta.
func betaPtr(b float64) *float64 { return &b }
