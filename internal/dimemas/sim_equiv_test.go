package dimemas

// Golden-equivalence tests: the event-driven engine must be bit-identical —
// not merely numerically close — to the original round-robin polling engine
// (simulateReference) for every valid trace, including recorded timelines
// and deadlock diagnostics. Every number the repo reports flows through
// Simulate, so any divergence here is a correctness bug, not a tolerance
// issue.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/trace"
)

func mustEqualResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Time != want.Time {
		t.Fatalf("%s: Time %v != reference %v", label, got.Time, want.Time)
	}
	if len(got.Compute) != len(want.Compute) || len(got.Finish) != len(want.Finish) {
		t.Fatalf("%s: slice lengths differ", label)
	}
	for r := range want.Compute {
		if got.Compute[r] != want.Compute[r] {
			t.Fatalf("%s: rank %d Compute %v != reference %v", label, r, got.Compute[r], want.Compute[r])
		}
		if got.Finish[r] != want.Finish[r] {
			t.Fatalf("%s: rank %d Finish %v != reference %v", label, r, got.Finish[r], want.Finish[r])
		}
	}
	if (got.Timeline == nil) != (want.Timeline == nil) {
		t.Fatalf("%s: timeline presence differs", label)
	}
	for r := range want.Timeline {
		if len(got.Timeline[r]) != len(want.Timeline[r]) {
			t.Fatalf("%s: rank %d has %d segments, reference %d",
				label, r, len(got.Timeline[r]), len(want.Timeline[r]))
		}
		for i, seg := range want.Timeline[r] {
			if got.Timeline[r][i] != seg {
				t.Fatalf("%s: rank %d segment %d = %+v, reference %+v",
					label, r, i, got.Timeline[r][i], seg)
			}
		}
	}
}

// randomValidTrace builds a deterministic pseudo-random trace that exercises
// every record kind: computes with and without β overrides, eager and
// rendezvous point-to-point in ring and pairwise patterns, all collective
// kinds, and iteration markers. n must be even; the even-sends-first
// orderings keep it deadlock free under blocking semantics.
func randomValidTrace(seed int64, n, iters int, eagerLimit int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(fmt.Sprintf("rand-%d-%d", seed, n), n)
	msgBytes := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(eagerLimit/2 + 1) // clearly eager
		case 1:
			return eagerLimit // boundary: still eager (limit is inclusive)
		case 2:
			return eagerLimit + 1 // boundary: smallest rendezvous
		default:
			return eagerLimit * (2 + rng.Int63n(8)) // clearly rendezvous
		}
	}
	for it := 0; it < iters; it++ {
		// Compute phase: 1–3 bursts per rank, some with explicit β.
		for r := 0; r < n; r++ {
			for b := rng.Intn(3) + 1; b > 0; b-- {
				if rng.Intn(3) == 0 {
					tr.Add(r, trace.ComputeBeta(rng.Float64()*2, rng.Float64()))
				} else {
					tr.Add(r, trace.Compute(rng.Float64()*2))
				}
			}
		}
		// Ring halo exchange, even ranks send first.
		ringBytes := msgBytes()
		for r := 0; r < n; r++ {
			right, left := (r+1)%n, (r-1+n)%n
			if r%2 == 0 {
				tr.Add(r, trace.Send(right, ringBytes, it), trace.Recv(left, ringBytes, it))
			} else {
				tr.Add(r, trace.Recv(left, ringBytes, it), trace.Send(right, ringBytes, it))
			}
		}
		// Pairwise exchange between 2k and 2k+1 on a different tag.
		if rng.Intn(2) == 0 {
			pairBytes := msgBytes()
			for r := 0; r+1 < n; r += 2 {
				tr.Add(r, trace.Send(r+1, pairBytes, 1000+it), trace.Recv(r+1, pairBytes, 2000+it))
				tr.Add(r+1, trace.Recv(r, pairBytes, 1000+it), trace.Send(r, pairBytes, 2000+it))
			}
		}
		// A collective on every rank, random kind and payload.
		if rng.Intn(2) == 0 {
			coll := trace.Collective(rng.Intn(6))
			collBytes := rng.Int63n(4096)
			for r := 0; r < n; r++ {
				tr.Add(r, trace.Coll(coll, collBytes))
			}
		}
		for r := 0; r < n; r++ {
			tr.Add(r, trace.IterMark())
		}
	}
	return tr
}

func equivPlatforms() []Platform {
	overheadHeavy := Platform{Latency: 1e-3, Bandwidth: 1e6, EagerLimit: 512, Overhead: 5e-4, LinearAllToAll: false}
	return []Platform{flatPlatform(), DefaultPlatform(), overheadHeavy}
}

func TestEventEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{2, 4, 8} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed))
				freqSets := [][]float64{nil}
				fs := make([]float64, n)
				for i := range fs {
					fs[i] = 0.8 + rng.Float64()*1.8
				}
				freqSets = append(freqSets, fs)
				for _, beta := range []float64{0, 0.5, 1} {
					for _, freqs := range freqSets {
						for _, timeline := range []bool{false, true} {
							opts := Options{Beta: beta, FMax: 2.3, Freqs: freqs, RecordTimeline: timeline}
							label := fmt.Sprintf("seed=%d n=%d platform=%d beta=%v freqs=%v timeline=%v",
								seed, n, pi, beta, freqs != nil, timeline)
							want, errW := simulateReference(tr, p, opts)
							got, errG := Simulate(tr, p, opts)
							if (errW == nil) != (errG == nil) {
								t.Fatalf("%s: err %v vs reference %v", label, errG, errW)
							}
							if errW != nil {
								continue
							}
							mustEqualResults(t, label, got, want)
						}
					}
				}
			}
		}
	}
}

func TestEventEngineMatchesReferenceOnHalo(t *testing.T) {
	loads := []float64{1, 2.5, 0.25, 4, 3, 0.5, 2, 1.5}
	tr := haloTrace(8, loads, 50000, 5) // rendezvous-size messages on DefaultPlatform
	for _, p := range equivPlatforms() {
		opts := DefaultOptions()
		opts.RecordTimeline = true
		want, err := simulateReference(tr, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(tr, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, "halo", got, want)
	}
}

func TestDeadlockDiagnosticMatchesReference(t *testing.T) {
	tr := trace.New("dl", 2)
	tr.Add(0, trace.Send(1, 200, 0), trace.Recv(1, 200, 0))
	tr.Add(1, trace.Send(0, 200, 0), trace.Recv(0, 200, 0))
	_, errW := simulateReference(tr, flatPlatform(), DefaultOptions())
	_, errG := Simulate(tr, flatPlatform(), DefaultOptions())
	if errW == nil || errG == nil {
		t.Fatalf("expected deadlock from both engines, got %v / %v", errW, errG)
	}
	if errW.Error() != errG.Error() {
		t.Errorf("deadlock diagnostics differ:\n new: %s\n ref: %s", errG, errW)
	}
}

// TestReplayIndexInvalidation ensures a trace extended after its first
// replay is re-indexed instead of replayed against the stale channel table.
func TestReplayIndexInvalidation(t *testing.T) {
	tr := trace.New("grow", 2)
	tr.Add(0, trace.Compute(1))
	tr.Add(1, trace.Compute(2))
	first, err := Simulate(tr, flatPlatform(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if first.Time != 2 {
		t.Fatalf("Time = %v, want 2", first.Time)
	}
	tr.Add(0, trace.Send(1, 10, 0))
	tr.Add(1, trace.Recv(0, 10, 0), trace.Compute(3))
	want, err := simulateReference(tr, flatPlatform(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(tr, flatPlatform(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after growth", got, want)
}

// TestConcurrentSimulateSameTrace replays one trace from many goroutines:
// the shared cached index plus pooled contexts must stay bit-deterministic.
func TestConcurrentSimulateSameTrace(t *testing.T) {
	tr := randomValidTrace(42, 8, 4, DefaultPlatform().EagerLimit)
	want, err := simulateReference(tr, DefaultPlatform(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 16)
	errs := make([]error, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Simulate(tr, DefaultPlatform(), DefaultOptions())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("goroutine %d", i), results[i], want)
	}
}

func TestReplayCacheSharesBaseline(t *testing.T) {
	tr := randomValidTrace(7, 4, 2, DefaultPlatform().EagerLimit)
	cache := NewReplayCache()
	opts := DefaultOptions()
	a, err := cache.Original(tr, DefaultPlatform(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Original(tr, DefaultPlatform(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Original did not return the memoized Result")
	}
	// The baseline is stored in the recording it was retimed from.
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
	// A different platform is a different key.
	if _, err := cache.Original(tr, flatPlatform(), opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", cache.Len())
	}
	// Explicit frequencies retime the cached recording: a hit, no new
	// entry, and the bits of a fresh simulation.
	withFreqs := opts
	withFreqs.Freqs = []float64{2.3, 1.8, 2.3, 1.4}
	hits := cache.Stats().Hits
	got, err := cache.Original(tr, DefaultPlatform(), withFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != hits+1 || s.Entries != 2 {
		t.Errorf("Freqs replay: stats %+v, want hits %d and 2 entries", s, hits+1)
	}
	fresh, err := Simulate(tr, DefaultPlatform(), withFreqs)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "cached Freqs replay", got, fresh)
	// Nil caches degrade to plain simulation.
	var nilCache *ReplayCache
	res, err := nilCache.Original(tr, DefaultPlatform(), opts)
	if err != nil || res == nil {
		t.Fatalf("nil cache: %v, %v", res, err)
	}
	mustEqualResults(t, "nil cache", res, a)
}

func TestReplayCacheSliceKeying(t *testing.T) {
	tr := randomValidTrace(11, 4, 3, DefaultPlatform().EagerLimit)
	cache := NewReplayCache()
	opts := DefaultOptions()
	// Re-slicing the same iteration must hit the (parent, iteration) key
	// even though the sub-trace pointers differ.
	sub1, err := tr.Slice(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := tr.Slice(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cache.SkeletonForSlice(tr, 1, sub1, FlatMachine(DefaultPlatform()), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.SkeletonForSlice(tr, 1, sub2, FlatMachine(DefaultPlatform()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("re-sliced iteration missed the cache")
	}
	want, err := Simulate(sub1, DefaultPlatform(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Retime(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "slice skeleton", want, got)
	// A different iteration, and the whole trace, are distinct keys; the
	// whole trace's baseline is stored in its recording.
	sub0, err := tr.Slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.SkeletonForSlice(tr, 0, sub0, FlatMachine(DefaultPlatform()), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Original(tr, DefaultPlatform(), opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3", cache.Len())
	}
}
