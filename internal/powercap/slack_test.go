package powercap

// The slack screen's differential oracle: on seeded random traces and
// machines, (1) every downshift the slack table certifies slower really
// retimes slower, under the case's load scale when it draws one, (2) Run,
// which screens, equals RunFresh, which never does, bit for bit —
// evaluation count included, and (3) Reschedule on the scaled skeleton
// picks Run's redistributed gears for the trace the scale stands for.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/trace"
)

// randomTrace builds a deadlock-free random trace with every record kind the
// skeleton distinguishes: computes with and without β overrides, eager and
// rendezvous ring and pairwise exchanges, collectives and iteration marks.
// n must be even.
func randomTrace(rng *rand.Rand, n, iters int, eagerLimit int64) *trace.Trace {
	tr := trace.New("slack-rand", n)
	msgBytes := func() int64 {
		if rng.Intn(2) == 0 {
			return rng.Int63n(eagerLimit + 1)
		}
		return eagerLimit + 1 + rng.Int63n(8*eagerLimit)
	}
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			for b := rng.Intn(3) + 1; b > 0; b-- {
				if rng.Intn(3) == 0 {
					tr.Add(r, trace.ComputeBeta(rng.Float64()*2, rng.Float64()))
				} else {
					tr.Add(r, trace.Compute(rng.Float64()*2))
				}
			}
		}
		ring := msgBytes()
		for r := 0; r < n; r++ {
			right, left := (r+1)%n, (r-1+n)%n
			if r%2 == 0 {
				tr.Add(r, trace.Send(right, ring, it), trace.Recv(left, ring, it))
			} else {
				tr.Add(r, trace.Recv(left, ring, it), trace.Send(right, ring, it))
			}
		}
		if rng.Intn(2) == 0 {
			pair := msgBytes()
			for r := 0; r+1 < n; r += 2 {
				tr.Add(r, trace.Send(r+1, pair, 1000+it), trace.Recv(r+1, pair, 2000+it))
				tr.Add(r+1, trace.Recv(r, pair, 1000+it), trace.Send(r, pair, 2000+it))
			}
		}
		if rng.Intn(2) == 0 {
			coll, bytes := trace.Collective(rng.Intn(6)), rng.Int63n(4096)
			for r := 0; r < n; r++ {
				tr.Add(r, trace.Coll(coll, bytes))
			}
		}
		for r := 0; r < n; r++ {
			tr.Add(r, trace.IterMark())
		}
	}
	return tr
}

// randomCase draws one scheduling problem: trace, platform, machine
// capability layer, β, gear set, cap kind and cap level, plus an optional
// per-rank load scale (nil in half the cases) for the scaled checks.
func randomCase(t *testing.T, seed int64) (Config, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 * (1 + rng.Intn(4))
	p := dimemas.DefaultPlatform()
	if rng.Intn(2) == 0 {
		p = dimemas.Platform{Latency: 1e-3, Bandwidth: 1e6, EagerLimit: 512, Overhead: 5e-4}
	}
	cfg := Config{Trace: randomTrace(rng, n, 1+rng.Intn(3), p.EagerLimit), Platform: p}
	if rng.Intn(3) > 0 {
		b := rng.Float64()
		if rng.Intn(4) == 0 {
			b = float64(rng.Intn(2)) // the β = 0 and β = 1 edges
		}
		cfg.Beta = &b
	}
	var err error
	if rng.Intn(2) == 0 {
		cfg.Set, err = dvfs.Uniform(2 + rng.Intn(6))
	} else {
		cfg.Set, err = dvfs.Exponential(2 + rng.Intn(6))
	}
	if err == nil && rng.Intn(4) == 0 {
		cfg.Set, err = cfg.Set.WithOverclockGear(dvfs.GearAt(2.6))
	}
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		c := &dimemas.Capability{}
		if rng.Intn(2) == 0 {
			c.Efficiency = make([]float64, n)
			for r := range c.Efficiency {
				c.Efficiency[r] = 0.5 + rng.Float64()
			}
		}
		if rng.Intn(2) == 0 {
			c.FMax = make([]float64, n)
			for r := range c.FMax {
				if rng.Intn(2) == 0 {
					c.FMax[r] = 1 + rng.Float64()*1.3
				}
			}
		}
		if rng.Intn(2) == 0 {
			c.PowerScale = make([]float64, n)
			for r := range c.PowerScale {
				c.PowerScale[r] = 0.5 + rng.Float64()*1.5
			}
		}
		cfg.Machine = &dimemas.Machine{Cap: c}
	}
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for r := 0; r < n; r++ {
		scale := 1.0
		if cfg.Machine != nil {
			scale = cfg.Machine.RankPowerScale(r)
		}
		peak += pm.Power(power.Compute, cfg.Set.Top()) * scale
	}
	if rng.Intn(2) == 0 {
		cfg.Kind = CapAverage
	}
	cfg.Cap = (0.3 + rng.Float64()*0.8) * peak
	// Drawn last, so every earlier draw matches the unscaled cases.
	var scale []float64
	if rng.Intn(2) == 0 {
		scale = make([]float64, n)
		for r := range scale {
			scale[r] = 0.5 + rng.Float64()
		}
	}
	return cfg, scale
}

// checkCertificates holds the slack table of cfg's skeleton under scale
// against Skeleton.RetimeScaled at two base vectors (every rank at its top
// gear, and a random one): for every rank and every lower gear, a certified
// downshift must retime strictly slower than the base, alone and with
// further downshifts on other ranks. It returns the number certified.
func checkCertificates(t *testing.T, seed int64, cfg Config, scale []float64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(^seed))
	n := cfg.Trace.NumRanks()
	sk, machine := caseSkeleton(t, cfg)
	gears := cfg.Set.Gears()
	top, random := make([]int, n), make([]int, n)
	for r := range top {
		top[r] = machine.RankTopGear(r, gears)
		random[r] = rng.Intn(top[r] + 1)
	}
	certified := 0
	for _, base := range [][]int{top, random} {
		freqs := make([]float64, n)
		for r, gi := range base {
			freqs[r] = gears[gi].Freq
		}
		tab, err := sk.Slack(freqs, scale)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sk.RetimeScaled(freqs, scale, false)
		if err != nil {
			t.Fatal(err)
		}
		probe := make([]float64, n)
		for r := range base {
			for gi := 0; gi < base[r]; gi++ {
				if !tab.Slower(r, gears[gi].Freq) {
					continue
				}
				certified++
				copy(probe, freqs)
				probe[r] = gears[gi].Freq
				for pass := 0; pass < 2; pass++ {
					res, err := sk.RetimeScaled(probe, scale, false)
					if err != nil {
						t.Fatal(err)
					}
					if !(res.Time > ref.Time) {
						t.Fatalf("seed %d: rank %d at %v GHz certified slower, but retimes to %v (base %v, probe %v)",
							seed, r, gears[gi].Freq, res.Time, ref.Time, probe)
					}
					for o := range probe {
						if o != r && base[o] > 0 && rng.Intn(3) == 0 {
							probe[o] = gears[rng.Intn(base[o])].Freq
						}
					}
				}
			}
		}
	}
	return certified
}

// checkRunMatchesFresh runs cfg screened (Run) and unscreened (RunFresh) and
// requires the same outcome bit for bit. It returns the screened run's
// slack-reclamation counts.
func checkRunMatchesFresh(t *testing.T, seed int64, cfg Config) (st ReclaimStats, feasible bool) {
	t.Helper()
	fresh, errF := RunFresh(cfg)
	cfg.Cache = dimemas.NewReplayCache()
	got, st, errG := RunReclaimStats(cfg)
	if (errF == nil) != (errG == nil) || errF != nil && errF.Error() != errG.Error() {
		t.Fatalf("seed %d: Run error %v, RunFresh error %v", seed, errG, errF)
	}
	if errF != nil {
		return st, false
	}
	// %#v prints every float in its shortest exact form, so equal strings
	// mean equal bits (gears, times, energies, powers, Evaluations).
	if a, b := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *fresh); a != b {
		t.Fatalf("seed %d: Run and RunFresh differ:\n run   %s\n fresh %s", seed, a, b)
	}
	return st, true
}

// caseSkeleton records cfg's timing skeleton on its resolved machine.
func caseSkeleton(t *testing.T, cfg Config) (*dimemas.Skeleton, dimemas.Machine) {
	t.Helper()
	machine, err := dimemas.ResolveMachine(cfg.Platform, cfg.Machine, cfg.Trace.NumRanks())
	if err != nil {
		t.Fatal(err)
	}
	opts, err := dimemas.ModelOptions(cfg.Beta, cfg.FMax)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := dimemas.BuildSkeletonMachine(cfg.Trace, machine, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sk, machine
}

// scaledReference returns the Run config whose trace a scaled skeleton of
// cfg on machine (cfg's resolved machine) stands for: cfg's trace
// stretched by the machine's efficiency, then by scale, on the machine
// without its Efficiency layer. The stretch comes
// first because a machine skeleton records it into every duration before a
// retime scale applies (dimemas.BuildSkeletonMachine).
func scaledReference(cfg Config, machine dimemas.Machine, scale []float64) Config {
	tr := cfg.Trace
	if eff := machine.ScaleVector(); eff != nil {
		tr = tr.ScaleCompute(func(r int, _ trace.Record) float64 { return eff[r] })
	}
	if machine.Cap != nil {
		c := *machine.Cap
		c.Efficiency = nil
		machine.Cap = &c
	}
	if scale != nil {
		tr = tr.ScaleCompute(func(r int, _ trace.Record) float64 { return scale[r] })
	}
	cfg.Trace, cfg.Machine = tr, &machine
	return cfg
}

// checkReschedule requires Reschedule on cfg's skeleton under scale to
// return Run's redistributed gears for the trace the scale stands for, or
// the same error.
func checkReschedule(t *testing.T, seed int64, cfg Config, scale []float64) {
	t.Helper()
	sk, machine := caseSkeleton(t, cfg)
	got, errG := Reschedule(cfg, sk, scale)
	want, errW := Run(scaledReference(cfg, machine, scale))
	if (errG == nil) != (errW == nil) || errG != nil && errG.Error() != errW.Error() {
		t.Fatalf("seed %d: Reschedule error %v, Run error %v", seed, errG, errW)
	}
	if errW != nil {
		return
	}
	if a, b := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want.Redistributed.Gears); a != b {
		t.Fatalf("seed %d (scaled %t): Reschedule and Run differ:\n reschedule %s\n run        %s", seed, scale != nil, a, b)
	}
}

func TestSlackScreenDifferential(t *testing.T) {
	var certified, screened, walked, feasible int
	const cases = 200
	for seed := int64(1); seed <= cases; seed++ {
		cfg, scale := randomCase(t, seed)
		certified += checkCertificates(t, seed, cfg, scale)
		checkReschedule(t, seed, cfg, scale)
		st, ok := checkRunMatchesFresh(t, seed, cfg)
		screened += st.Screened
		walked += st.Walked
		if ok {
			feasible++
		}
	}
	// Guard against a vacuous oracle: most caps must be feasible and the
	// screen must have fired.
	if feasible < cases/2 || certified == 0 || screened == 0 {
		t.Fatalf("vacuous oracle: %d of %d cases feasible, %d certified, %d screened (%d walked)",
			feasible, cases, certified, screened, walked)
	}
	t.Logf("%d of %d cases feasible; %d downshifts certified; Run screened %d reclaim probes and walked %d",
		feasible, cases, certified, screened, walked)
}

func FuzzSlackCertificate(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg, scale := randomCase(t, seed)
		checkCertificates(t, seed, cfg, scale)
		checkRunMatchesFresh(t, seed, cfg)
		checkReschedule(t, seed, cfg, scale)
	})
}

// TestSweepScreensRejectedProbes guards the screen itself: bit identity
// with RunFresh holds just as well with the screen disabled, so on
// BenchmarkPowercapSweep's WRF-128 8-cap sweep at least 95% of the slack
// reclamation probes that come out rejected must be certified without a
// replay.
func TestSweepScreensRejectedProbes(t *testing.T) {
	set, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	_, st := runSweep(t, wrfTrace(t), set, false)
	rejected := st.Screened + st.Walked
	if rejected == 0 || float64(st.Screened) < 0.95*float64(rejected) {
		t.Fatalf("%d of %d rejected reclaim probes certified, want at least 95%%", st.Screened, rejected)
	}
	t.Logf("%d of %d rejected reclaim probes certified; %d accepted", st.Screened, rejected, st.Accepted)
}
