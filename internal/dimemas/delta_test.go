package dimemas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// mutate returns a copy of freqs with k random ranks re-drawn — the shape
// of candidate every optimizer neighborhood produces.
func mutateFreqs(rng *rand.Rand, freqs []float64, k int) []float64 {
	out := append([]float64(nil), freqs...)
	for i := 0; i < k; i++ {
		out[rng.Intn(len(out))] = 0.4 + rng.Float64()*2.4
	}
	return out
}

func mutateScale(rng *rand.Rand, scale []float64, k int) []float64 {
	out := append([]float64(nil), scale...)
	for i := 0; i < k; i++ {
		out[rng.Intn(len(out))] = 0.5 + rng.Float64()*1.2
	}
	return out
}

// TestRetimeDeltaMatchesRetime is the tentpole property test: over random
// traces, platforms, βs and protocols, ANY sequence of mutations — single
// rank, a few ranks, load-scale changes, no-op repeats, full redraws —
// scored through one reused DeltaState must match a fresh full RetimeScaled
// bit for bit (Time, Compute, Finish). Deadlock diagnostics need no delta
// counterpart: they surface at BuildSkeleton, before any retiming tier, and
// TestSkeletonDeadlockDiagnostics already pins them against Simulate.
func TestRetimeDeltaMatchesRetime(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{2, 4, 8, 16} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed*977 + int64(n)))
				for _, beta := range []float64{0, 0.5, 1} {
					opts := Options{Beta: beta, FMax: 2.3}
					sk, err := BuildSkeleton(tr, p, opts)
					if err != nil {
						t.Fatalf("seed=%d n=%d platform=%d beta=%v: BuildSkeleton: %v", seed, n, pi, beta, err)
					}
					var st DeltaState
					freqs := randomGearVector(rng, n)
					var scale []float64
					for step := 0; step < 24; step++ {
						switch rng.Intn(8) {
						case 0: // repeat the same vectors (empty dirty set)
						case 1: // single-rank frequency change
							if freqs == nil {
								freqs = randomGearVector(rng, n)
							} else {
								freqs = mutateFreqs(rng, freqs, 1)
							}
						case 2: // two-rank change
							if freqs == nil {
								freqs = randomGearVector(rng, n)
							} else {
								freqs = mutateFreqs(rng, freqs, 2)
							}
						case 3: // full redraw (record-pass fallback)
							freqs = randomGearVector(rng, n)
						case 4: // nil freqs (all ranks at FMax)
							freqs = nil
						case 5: // introduce or mutate a load scale
							if scale == nil {
								scale = make([]float64, n)
								for i := range scale {
									scale[i] = 1
								}
							}
							scale = mutateScale(rng, scale, 1)
						case 6: // drop the scale again
							scale = nil
						default:
							if freqs == nil {
								freqs = randomGearVector(rng, n)
							} else {
								freqs = mutateFreqs(rng, freqs, 1)
							}
						}
						label := fmt.Sprintf("seed=%d n=%d platform=%d beta=%v step=%d", seed, n, pi, beta, step)
						want, err := sk.RetimeScaled(freqs, scale, false)
						if err != nil {
							t.Fatalf("%s: RetimeScaled: %v", label, err)
						}
						got, err := sk.RetimeDelta(&st, freqs, scale)
						if err != nil {
							t.Fatalf("%s: RetimeDelta: %v", label, err)
						}
						mustEqualResults(t, label, got, want)
					}
					// A separate generator keeps the walk's draws above as they were.
					memoRng := rand.New(rand.NewSource(seed*131 + int64(n)))
					checkMemoScripts(t, fmt.Sprintf("seed=%d n=%d platform=%d beta=%v", seed, n, pi, beta), sk, memoRng)
				}
			}
		}
	}
}

// checkMemoScripts drives scripted vector sequences through a fresh
// DeltaState: every step must match RetimeScaled bit for bit, and the
// two-entry memo must answer exactly the steps marked as hits.
func checkMemoScripts(t *testing.T, label string, sk *Skeleton, rng *rand.Rand) {
	t.Helper()
	n := sk.NumRanks()
	a := randomGearVector(rng, n)
	b := mutateFreqs(rng, a, 1)
	b[0] = a[0] + 0.05 // guarantee B != A
	c := mutateFreqs(rng, b, 1)
	c[0] = b[0] + 0.05
	ones := make([]float64, n)
	fmaxs := make([]float64, n)
	for i := range ones {
		ones[i], fmaxs[i] = 1, sk.fmax
	}
	plusZero := append([]float64(nil), ones...)
	minusZero := append([]float64(nil), ones...)
	plusZero[0], minusZero[0] = 0, math.Copysign(0, -1)
	type step struct {
		freqs, scale []float64
		hit          bool
	}
	scripts := []struct {
		name  string
		steps []step
	}{
		// The older entry still holds A after B: its Result comes back.
		{"A B A", []step{{a, nil, false}, {b, nil, false}, {a, nil, true}}},
		// C evicts A (the least recently used), so A is recomputed.
		{"A B C A", []step{{a, nil, false}, {b, nil, false}, {c, nil, false}, {a, nil, false}}},
		// Recently used entries survive: A is touched again before C lands.
		{"A B A C A", []step{{a, nil, false}, {b, nil, false}, {a, nil, true}, {c, nil, false}, {a, nil, true}}},
		// nil vectors resolve to FMax / scale 1 and share entries with
		// their explicit forms.
		{"nil explicit", []step{{nil, nil, false}, {fmaxs, ones, true}, {a, nil, false}, {a, ones, true}}},
		// A −0 load scale is the +0 entry: identical sums, identical bits.
		{"+0 -0", []step{{a, plusZero, false}, {a, minusZero, true}}},
	}
	for _, sc := range scripts {
		name := sc.name
		var st DeltaState
		for i, sp := range sc.steps {
			before := st.Stats()
			got, err := sk.RetimeDelta(&st, sp.freqs, sp.scale)
			if err != nil {
				t.Fatalf("%s %s step %d: RetimeDelta: %v", label, name, i, err)
			}
			want, err := sk.RetimeScaled(sp.freqs, sp.scale, false)
			if err != nil {
				t.Fatalf("%s %s step %d: RetimeScaled: %v", label, name, i, err)
			}
			mustEqualResults(t, fmt.Sprintf("%s %s step %d", label, name, i), got, want)
			after := st.Stats()
			if hit := after.NoChange == before.NoChange+1; hit != sp.hit {
				t.Fatalf("%s %s step %d: memo hit = %v, want %v (stats %+v)", label, name, i, hit, sp.hit, after)
			}
			if after.Passes != before.Passes+1 || after.NoChange+after.Record != after.Passes || after.Sparse != 0 {
				t.Fatalf("%s %s step %d: inconsistent stats %+v", label, name, i, after)
			}
		}
	}
}

func TestRetimeDeltaValidationMatchesRetime(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(7, 4, 3, p.EagerLimit)
	sk, err := BuildSkeleton(tr, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var st DeltaState
	bad := [][2][]float64{
		{{1, 1, 1}, nil},             // wrong length
		{{1, -2, 1, 1}, nil},         // negative frequency
		{nil, {1, 1}},                // wrong scale length
		{nil, {1, -0.5, 1, 1}},       // negative scale
		{{0, 1, 1, 1}, nil},          // zero frequency
		{{1, 1, 1, 1, 1}, {1, 1, 1}}, // both wrong
	}
	for i, c := range bad {
		_, wantErr := sk.RetimeScaled(c[0], c[1], false)
		_, gotErr := sk.RetimeDelta(&st, c[0], c[1])
		if wantErr == nil || gotErr == nil {
			t.Fatalf("case %d: expected errors, got retime=%v delta=%v", i, wantErr, gotErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("case %d: delta error %q != retime error %q", i, gotErr, wantErr)
		}
		gotStage, _ := stagerr.StageOf(gotErr)
		wantStage, _ := stagerr.StageOf(wantErr)
		if gotStage != wantStage {
			t.Errorf("case %d: delta stage %q != retime stage %q", i, gotStage, wantStage)
		}
	}
	// A rejected call must not corrupt the memo: the next good call
	// still matches a full retime.
	freqs := []float64{1, 2, 1.5, 0.8}
	if _, err := sk.RetimeDelta(&st, freqs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.RetimeDelta(&st, []float64{1, -1, 1, 1}, nil); err == nil {
		t.Fatal("expected validation error")
	}
	freqs[2] = 2.2
	want, err := sk.Retime(freqs, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.RetimeDelta(&st, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "post-error", got, want)
}

// TestRetimeDeltaFaultInjection arms the retime fault point and checks the
// delta path surfaces the stage-tagged fault, leaves the memo intact,
// and recovers bit-identically once the fault clears — the library half of
// the server chaos coverage.
func TestRetimeDeltaFaultInjection(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(13, 8, 3, p.EagerLimit)
	sk, err := BuildSkeleton(tr, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var st DeltaState
	freqs := randomGearVector(rng, 8)
	if _, err := sk.RetimeDelta(&st, freqs, nil); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewRegistry(42, map[faults.Point]uint64{faults.Retime: 1}))
	defer faults.Disable()
	next := mutateFreqs(rng, freqs, 1)
	_, gotErr := sk.RetimeDelta(&st, next, nil)
	if gotErr == nil {
		t.Fatal("expected injected fault")
	}
	if stage, ok := stagerr.StageOf(gotErr); !ok || stage != stagerr.Retime {
		t.Fatalf("fault stage = %q, want %q", stage, stagerr.Retime)
	}
	if !faults.IsInjected(gotErr) {
		t.Fatalf("error %v not marked as injected", gotErr)
	}
	faults.Disable()
	want, err := sk.Retime(next, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.RetimeDelta(&st, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "post-fault", got, want)
}

// TestDeltaStateRebindAndInvalidate checks that a state moved to another
// skeleton drops its memo entries: the same vector on the new skeleton, and
// again on the old one, is retimed rather than answered from the memo.
func TestDeltaStateRebindAndInvalidate(t *testing.T) {
	p := DefaultPlatform()
	rng := rand.New(rand.NewSource(17))
	trA := randomValidTrace(21, 4, 3, p.EagerLimit)
	trB := randomValidTrace(22, 4, 3, p.EagerLimit)
	skA, err := BuildSkeleton(trA, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	skB, err := BuildSkeleton(trB, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var st DeltaState
	freqs := randomGearVector(rng, 4)
	for i, sk := range []*Skeleton{skA, skB, skA} {
		label := fmt.Sprintf("bind %d", i)
		want, err := sk.Retime(freqs, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.RetimeDelta(&st, freqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, label, got, want)
		if s := st.Stats(); s.NoChange != 0 || s.Record != uint64(i+1) {
			t.Fatalf("%s: a rebound state answered from its memo: %+v", label, s)
		}
	}
	// Bound again, the memo answers the repeat.
	if _, err := skA.RetimeDelta(&st, freqs, nil); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.NoChange != 1 {
		t.Fatalf("repeat on a bound state missed the memo: %+v", s)
	}
}
