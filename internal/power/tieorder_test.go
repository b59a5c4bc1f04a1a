package power_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/timemodel"
	"repro/internal/workload"
)

// TestProfileTieOrderGolden pins the float bits of the power profile of a
// WRF-128 timeline balanced by MAX on the six-gear uniform set. Ranks
// released by one collective finish their bursts at the same instant, so
// many profile events share a timestamp, and BuildProfileScaled sums the
// deltas at a timestamp in the order its (unstable) sort leaves them. A
// change of sort algorithm or of Go's sort implementation that reorders
// ties moves these bits and fails here instead of drifting silently. On a
// mismatch the test logs the file as it would be now; replace
// testdata/profile_wrf128_max.golden with it only when a change is meant to
// move the profile.
func TestProfileTieOrderGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("profile bits are pinned on amd64; other architectures may fuse multiply-adds")
	}
	inst, err := workload.FindInstance("WRF-128")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := core.NewBalancer(set, timemodel.DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := bal.Assign(core.MAX, tr.ComputeTimes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dimemas.Simulate(tr, cfg.Platform, dimemas.Options{
		Beta: timemodel.DefaultBeta, FMax: cfg.FMax, Freqs: asg.Freqs(), RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := power.BuildProfile(m, res.Timeline, asg.Gears, res.Time)
	if err != nil {
		t.Fatal(err)
	}

	// The case only pins tie order if it has ties: count the compute
	// boundaries that share their instant with another one.
	at := map[float64]int{}
	for _, tl := range res.Timeline {
		for _, s := range tl {
			if s.State == dimemas.StateCompute && s.End > s.Start {
				at[s.Start]++
				at[s.End]++
			}
		}
	}
	tied := 0
	for _, c := range at {
		if c > 1 {
			tied += c
		}
	}
	if tied < 1000 {
		t.Fatalf("only %d profile events share a timestamp; the case no longer exercises tie order", tied)
	}

	h := sha256.New()
	var buf [8]byte
	word := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	steps := p.Steps()
	for _, s := range steps {
		word(s.Start)
		word(s.End)
		word(s.Power)
	}
	got := fmt.Sprintf("steps %d\nsha256 %x\npeak %016x\nenergy %016x\n",
		len(steps), h.Sum(nil), math.Float64bits(p.Peak()), math.Float64bits(p.Energy()))
	want, err := os.ReadFile("testdata/profile_wrf128_max.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("profile bits differ from testdata/profile_wrf128_max.golden (%d tied events); now:\n%s", tied, got)
	}
}
