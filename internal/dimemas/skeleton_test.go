package dimemas

// Golden-equivalence tests for the timing-skeleton retimer: Retime must be
// bit-identical — not merely numerically close — to Simulate for every valid
// trace and every per-rank gear vector, including recorded timelines, and
// skeleton construction must surface the identical deadlock diagnostic.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// randomGearVector draws per-rank frequencies across the interesting range,
// including over-clocking and far-below-nominal gears.
func randomGearVector(rng *rand.Rand, n int) []float64 {
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = 0.4 + rng.Float64()*2.4
	}
	return fs
}

func TestRetimeMatchesSimulate(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{2, 4, 8} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed * 31))
				for _, beta := range []float64{0, 0.5, 1} {
					opts := Options{Beta: beta, FMax: 2.3}
					sk, err := BuildSkeleton(tr, p, opts)
					if err != nil {
						t.Fatalf("seed=%d n=%d platform=%d beta=%v: BuildSkeleton: %v", seed, n, pi, beta, err)
					}
					freqSets := [][]float64{nil, randomGearVector(rng, n), randomGearVector(rng, n)}
					for fi, freqs := range freqSets {
						for _, timeline := range []bool{false, true} {
							label := fmt.Sprintf("seed=%d n=%d platform=%d beta=%v freqs=%d timeline=%v",
								seed, n, pi, beta, fi, timeline)
							simOpts := opts
							simOpts.Freqs = freqs
							simOpts.RecordTimeline = timeline
							want, err := Simulate(tr, p, simOpts)
							if err != nil {
								t.Fatalf("%s: Simulate: %v", label, err)
							}
							got, err := sk.Retime(freqs, timeline)
							if err != nil {
								t.Fatalf("%s: Retime: %v", label, err)
							}
							mustEqualResults(t, label, got, want)
						}
					}
				}
			}
		}
	}
}

func TestRetimeIntoReusesResult(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(99, 8, 4, p.EagerLimit)
	opts := DefaultOptions()
	sk, err := BuildSkeleton(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var res Result
	for i := 0; i < 5; i++ {
		freqs := randomGearVector(rng, 8)
		simOpts := opts
		simOpts.Freqs = freqs
		want, err := Simulate(tr, p, simOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sk.RetimeInto(&res, freqs); err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("reuse %d", i), &res, want)
	}
	// The backing arrays must be reused across calls.
	first := &res.Compute[0]
	if err := sk.RetimeInto(&res, nil); err != nil {
		t.Fatal(err)
	}
	if first != &res.Compute[0] {
		t.Error("RetimeInto reallocated the Compute slice")
	}
}

func TestRetimeConcurrentSameSkeleton(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(123, 8, 4, p.EagerLimit)
	opts := DefaultOptions()
	sk, err := BuildSkeleton(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	freqs := randomGearVector(rng, 8)
	simOpts := opts
	simOpts.Freqs = freqs
	want, err := Simulate(tr, p, simOpts)
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
			results[i], errs[i] = sk.Retime(freqs, false)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		mustEqualResults(t, fmt.Sprintf("goroutine %d", i), results[i], want)
	}
}

func TestBuildSkeletonDeadlockDiagnosticMatchesSimulate(t *testing.T) {
	traces := []*trace.Trace{}
	// Classic head-to-head rendezvous deadlock.
	dl := trace.New("dl", 2)
	dl.Add(0, trace.Send(1, 200, 0), trace.Recv(1, 200, 0))
	dl.Add(1, trace.Send(0, 200, 0), trace.Recv(0, 200, 0))
	traces = append(traces, dl)
	// Recv before any send on the channel while the peer waits in a
	// collective — mixed blocking kinds in the diagnostic.
	mixed := trace.New("mixed", 3)
	mixed.Add(0, trace.Recv(1, 10, 7), trace.Coll(trace.CollBarrier, 0))
	mixed.Add(1, trace.Coll(trace.CollBarrier, 0), trace.Send(0, 10, 7))
	mixed.Add(2, trace.Coll(trace.CollBarrier, 0))
	traces = append(traces, mixed)
	for _, tr := range traces {
		_, simErr := Simulate(tr, flatPlatform(), DefaultOptions())
		_, skelErr := BuildSkeleton(tr, flatPlatform(), DefaultOptions())
		if simErr == nil || skelErr == nil {
			t.Fatalf("%s: expected deadlock from both, got %v / %v", tr.App, simErr, skelErr)
		}
		if simErr.Error() != skelErr.Error() {
			t.Errorf("%s: diagnostics differ:\n skeleton: %s\n simulate: %s", tr.App, skelErr, simErr)
		}
	}
}

// TestRetimeScaledMatchesSimulateScaledTrace is the golden-equivalence
// check of the load-scaled retimer: RetimeScaled over the base trace's
// skeleton must be bit-identical to Simulate over the corresponding
// ScaleCompute'd trace — the property that lets one skeleton replay a whole
// family of load-drifted iterations.
func TestRetimeScaledMatchesSimulateScaledTrace(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{2, 4, 8} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed * 77))
				opts := Options{Beta: 0.5, FMax: 2.3}
				sk, err := BuildSkeleton(tr, p, opts)
				if err != nil {
					t.Fatalf("seed=%d n=%d platform=%d: BuildSkeleton: %v", seed, n, pi, err)
				}
				for trial := 0; trial < 3; trial++ {
					scale := make([]float64, n)
					for r := range scale {
						scale[r] = 0.3 + rng.Float64()*1.8
					}
					if trial == 2 {
						scale[rng.Intn(n)] = 0 // a rank whose load vanished
					}
					scaled := tr.ScaleCompute(func(r int, _ trace.Record) float64 { return scale[r] })
					for fi, freqs := range [][]float64{nil, randomGearVector(rng, n)} {
						for _, timeline := range []bool{false, true} {
							label := fmt.Sprintf("seed=%d n=%d platform=%d trial=%d freqs=%d timeline=%v",
								seed, n, pi, trial, fi, timeline)
							simOpts := opts
							simOpts.Freqs = freqs
							simOpts.RecordTimeline = timeline
							want, err := Simulate(scaled, p, simOpts)
							if err != nil {
								t.Fatalf("%s: Simulate: %v", label, err)
							}
							got, err := sk.RetimeScaled(freqs, scale, timeline)
							if err != nil {
								t.Fatalf("%s: RetimeScaled: %v", label, err)
							}
							mustEqualResults(t, label, got, want)
						}
					}
				}
				// An all-ones scale is bit-identical to the unscaled retimer.
				ones := make([]float64, n)
				for r := range ones {
					ones[r] = 1
				}
				want, err := sk.Retime(nil, false)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sk.RetimeScaled(nil, ones, false)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, fmt.Sprintf("seed=%d n=%d platform=%d ones", seed, n, pi), got, want)
			}
		}
	}
}

func TestRetimeScaledValidatesScale(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(7, 4, 2, p.EagerLimit)
	sk, err := BuildSkeleton(tr, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.RetimeScaled(nil, []float64{1, 1}, false); err == nil {
		t.Error("wrong-length scale vector accepted")
	}
	if _, err := sk.RetimeScaled(nil, []float64{1, -0.5, 1, 1}, false); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := sk.RetimeScaled(nil, []float64{1, math.NaN(), 1, 1}, false); err == nil {
		t.Error("NaN scale accepted")
	}
	if _, err := sk.RetimeScaled(nil, []float64{1, math.Inf(1), 1, 1}, false); err == nil {
		t.Error("+Inf scale accepted")
	}
}

func TestReplayCacheSkeletonForSlice(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(12, 4, 3, p.EagerLimit)
	cache := NewReplayCache()
	m := FlatMachine(p)
	opts := DefaultOptions()
	subA, err := tr.Slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cache.SkeletonForSlice(tr, 0, subA, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A re-slice of the same iteration is a distinct *Trace, but the
	// (parent, iteration) key makes it hit the memoized skeleton.
	subB, err := tr.Slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.SkeletonForSlice(tr, 0, subB, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("re-sliced iteration did not hit the memoized skeleton")
	}
	// A different iteration index gets its own entry, as does the
	// whole-trace skeleton.
	sub1, err := tr.Slice(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.SkeletonForSlice(tr, 1, sub1, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("iteration 1 shared iteration 0's skeleton")
	}
	if _, err := cache.SkeletonFor(tr, p, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3 (two slices + whole trace)", cache.Len())
	}
	// The memoized slice skeleton retimes bit-identically to simulating
	// the slice directly.
	want, err := Simulate(subA, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Retime(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "slice skeleton", got, want)
	// Nil receivers degrade to an uncached build.
	var nilCache *ReplayCache
	if sk, err := nilCache.SkeletonForSlice(tr, 0, subA, m, opts); err != nil || sk == nil {
		t.Fatalf("nil cache SkeletonForSlice: %v, %v", sk, err)
	}
}

func TestRetimeValidatesFrequencies(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(3, 4, 2, p.EagerLimit)
	sk, err := BuildSkeleton(tr, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Retime([]float64{1, 2}, false); err == nil {
		t.Error("wrong-length gear vector accepted")
	}
	if _, err := sk.Retime([]float64{1, 2, -1, 2}, false); err == nil {
		t.Error("negative frequency accepted")
	}
}

func TestBuildSkeletonValidatesOptions(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(4, 4, 2, p.EagerLimit)
	if _, err := BuildSkeleton(tr, p, Options{Beta: 0.5, FMax: 0}); err == nil {
		t.Error("zero FMax accepted")
	}
	if _, err := BuildSkeleton(tr, p, Options{Beta: 1.5, FMax: 2.3}); err == nil {
		t.Error("beta > 1 accepted")
	}
	if _, err := BuildSkeleton(tr, p, Options{Beta: math.NaN(), FMax: 2.3}); err == nil {
		t.Error("NaN beta accepted")
	}
	if _, err := Simulate(tr, p, Options{Beta: math.NaN(), FMax: 2.3}); err == nil {
		t.Error("Simulate accepted NaN beta")
	}
	if _, err := Simulate(tr, p, Options{Beta: 0.5, FMax: math.NaN()}); err == nil {
		t.Error("Simulate accepted NaN FMax")
	}
	bad := Platform{Latency: -1, Bandwidth: 1}
	if _, err := BuildSkeleton(tr, bad, DefaultOptions()); err == nil {
		t.Error("invalid platform accepted")
	}
}

// TestNonFiniteModelInputsRejected pins that every entry point rejects a
// non-finite FMax or per-rank frequency with a validate-stage error, instead
// of replaying it into clocks on which the engines disagree.
func TestNonFiniteModelInputsRejected(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(5, 4, 2, p.EagerLimit)
	sk, err := BuildSkeleton(tr, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	infFreq := []float64{1, inf, 1, 1}
	var st DeltaState
	cases := []struct {
		name string
		call func() error
	}{
		{"Simulate FMax=+Inf", func() error {
			_, err := Simulate(tr, p, Options{Beta: 0.5, FMax: inf})
			return err
		}},
		{"BuildSkeleton FMax=+Inf", func() error {
			_, err := BuildSkeleton(tr, p, Options{Beta: 0.5, FMax: inf})
			return err
		}},
		{"Simulate FMax=-Inf", func() error {
			_, err := Simulate(tr, p, Options{Beta: 0.5, FMax: math.Inf(-1)})
			return err
		}},
		{"Simulate freq=+Inf", func() error {
			_, err := Simulate(tr, p, Options{Beta: 0.5, FMax: 2.3, Freqs: infFreq})
			return err
		}},
		{"Retime freq=+Inf", func() error {
			_, err := sk.Retime(infFreq, false)
			return err
		}},
		{"Retime freq=NaN", func() error {
			_, err := sk.Retime([]float64{1, 1, math.NaN(), 1}, true)
			return err
		}},
		{"RetimeBatch freq=+Inf", func() error {
			_, err := sk.RetimeBatch([][]float64{nil, infFreq})
			return err
		}},
		{"RetimeDelta freq=+Inf", func() error {
			_, err := sk.RetimeDelta(&st, infFreq, nil)
			return err
		}},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if stage, ok := stagerr.StageOf(err); !ok || stage != stagerr.Validate {
			t.Errorf("%s: stage = %q, want %q (%v)", c.name, stage, stagerr.Validate, err)
		}
	}
}

func TestReplayCacheSkeletonSharing(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(8, 4, 2, p.EagerLimit)
	cache := NewReplayCache()
	opts := DefaultOptions()
	a, err := cache.SkeletonFor(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.SkeletonFor(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second SkeletonFor did not return the memoized skeleton")
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
	// A baseline lookup reads the same recording: no second entry.
	if _, err := cache.Original(tr, p, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1 (one recording)", cache.Len())
	}
	// Skeletons are shared across β: another β reads the same recording
	// through a view, and shares the baseline too.
	other := opts
	other.Beta = 0.2
	v, err := cache.SkeletonFor(tr, p, other)
	if err != nil {
		t.Fatal(err)
	}
	if v == a || &v.ops[0] != &a.ops[0] {
		t.Error("a skeleton at another β is not a view of the same recording")
	}
	if same, _ := cache.SkeletonFor(tr, p, opts); same != a {
		t.Error("the recording β no longer returns the memoized skeleton")
	}
	if _, err := cache.Original(tr, p, other); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1 (one recording)", cache.Len())
	}
	// ReplayMachine with explicit frequencies retimes off the cached skeleton and
	// stays bit-identical to Simulate.
	rng := rand.New(rand.NewSource(21))
	freqs := randomGearVector(rng, 4)
	simOpts := opts
	simOpts.Freqs = freqs
	want, err := Simulate(tr, p, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cache.ReplayMachine(tr, FlatMachine(p), simOpts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "cache.ReplayMachine", got, want)
	// Nil caches degrade to plain simulation for both entry points.
	var nilCache *ReplayCache
	res, err := nilCache.ReplayMachine(tr, FlatMachine(p), simOpts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "nil cache.ReplayMachine", res, want)
	if sk, err := nilCache.SkeletonFor(tr, p, opts); err != nil || sk == nil {
		t.Fatalf("nil cache SkeletonFor: %v, %v", sk, err)
	}
}

func TestReplayCacheDoesNotMemoizeCancellation(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(9, 4, 2, p.EagerLimit)
	cache := NewReplayCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	if _, err := cache.Original(tr, p, opts); !memo.IsCtxErr(err) {
		t.Fatalf("cancelled replay returned %v, want a context error", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("cancelled replay was memoized (%d entries)", cache.Len())
	}
	// A later caller with a live context must get a real result.
	opts.Ctx = context.Background()
	res, err := cache.Original(tr, p, opts)
	if err != nil || res == nil {
		t.Fatalf("post-cancellation replay: %v, %v", res, err)
	}
	if cache.Len() != 1 { // the recording, holding the baseline
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
	// Same for skeletons, on a trace whose skeleton no baseline recorded.
	other := randomValidTrace(10, 4, 2, p.EagerLimit)
	opts.Ctx = ctx
	if _, err := cache.SkeletonFor(other, p, opts); !memo.IsCtxErr(err) {
		t.Fatalf("cancelled skeleton build returned %v, want a context error", err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cancelled skeleton build was memoized (%d entries)", cache.Len())
	}
	opts.Ctx = nil
	if _, err := cache.SkeletonFor(other, p, opts); err != nil {
		t.Fatal(err)
	}
}

// trippingCtx reports itself live on the first Err() call (the replay's
// upfront check) and dead on every later one, so tests can prove the
// engines poll cancellation *inside* the record loop, not just between
// queue pops — a 2-rank compute-heavy trace retires whole rank streams in
// single steps.
type trippingCtx struct {
	context.Context
	calls int
}

func (c *trippingCtx) Err() error {
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

func TestCancellationInsideLongRankStreams(t *testing.T) {
	tr := trace.New("long", 2)
	for r := 0; r < 2; r++ {
		for i := 0; i < 2*cancelStride; i++ {
			tr.Add(r, trace.Compute(1e-6))
		}
	}
	opts := DefaultOptions()
	opts.Ctx = &trippingCtx{Context: context.Background()}
	if _, err := Simulate(tr, DefaultPlatform(), opts); !memo.IsCtxErr(err) {
		t.Errorf("Simulate on a long rank stream returned %v, want a context error", err)
	}
	opts.Ctx = &trippingCtx{Context: context.Background()}
	if _, err := BuildSkeleton(tr, DefaultPlatform(), opts); !memo.IsCtxErr(err) {
		t.Errorf("BuildSkeleton on a long rank stream returned %v, want a context error", err)
	}
}

func TestSimulateHonorsContext(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(10, 8, 4, p.EagerLimit)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	if _, err := Simulate(tr, p, opts); !memo.IsCtxErr(err) {
		t.Fatalf("Simulate under a dead context returned %v, want a context error", err)
	}
	if _, err := BuildSkeleton(tr, p, opts); !memo.IsCtxErr(err) {
		t.Fatalf("BuildSkeleton under a dead context returned %v, want a context error", err)
	}
	// A live context must not change the result.
	opts.Ctx = context.Background()
	got, err := Simulate(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(tr, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "live ctx", got, want)
}
