package dimemas

import (
	"math"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// tinyTrace builds a distinct two-rank compute-only trace; the compute time
// makes each trace's replay distinguishable.
func tinyTrace(compute float64) *trace.Trace {
	tr := trace.New("tiny", 2)
	tr.Add(0, trace.Compute(compute))
	tr.Add(1, trace.Compute(compute/2))
	return tr
}

func TestReplayCacheStatsCounters(t *testing.T) {
	c := NewReplayCache()
	tr := tinyTrace(1)
	p := DefaultPlatform()
	opts := DefaultOptions()

	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("fresh cache stats = %+v, want zeros", s)
	}
	if _, err := c.Original(tr, p, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Original(tr, p, opts); err != nil {
		t.Fatal(err)
	}
	// The first baseline read records the skeleton it is retimed from:
	// one miss, one entry; the second lookup hits the recording.
	s := c.Stats()
	want := CacheStats{Hits: 1, Misses: 1, Evictions: 0, Entries: 1}
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}

	// Explicit per-rank frequencies retime the same recording: one more
	// hit, no new entry.
	withFreqs := opts
	withFreqs.Freqs = []float64{2.3, 2.3}
	if _, err := c.Original(tr, p, withFreqs); err != nil {
		t.Fatal(err)
	}
	want.Hits++
	if s := c.Stats(); s != want {
		t.Fatalf("stats after a Freqs replay = %+v, want %+v", s, want)
	}
}

func TestReplayCacheNilStats(t *testing.T) {
	var c *ReplayCache
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zeros", s)
	}
}

// TestReplayCacheLRUEviction drives the LRU on recordings, one entry per
// trace whether a skeleton or a baseline read filled it.
func TestReplayCacheLRUEviction(t *testing.T) {
	c := NewReplayCacheWithLimit(2)
	p := DefaultPlatform()
	opts := DefaultOptions()
	a, b, d := tinyTrace(1), tinyTrace(2), tinyTrace(3)

	skA, err := c.SkeletonFor(a, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SkeletonFor(b, p, opts); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// Touch a so b becomes least recently used, then insert d: b must go.
	touchedA, err := c.SkeletonFor(a, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if touchedA != skA {
		t.Fatal("hit on a returned a different Skeleton pointer")
	}
	if _, err := c.SkeletonFor(d, p, opts); err != nil {
		t.Fatal(err)
	}

	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", s)
	}

	// a survived (still the shared pointer); b was evicted and recomputes.
	gotA, err := c.SkeletonFor(a, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotA != skA {
		t.Fatal("a was evicted: expected the memoized Skeleton pointer")
	}
	before := c.Stats().Misses
	if _, err := c.SkeletonFor(b, p, opts); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Misses != before+1 {
		t.Fatalf("b lookup after eviction: misses %d -> %d, want a fresh miss", before, after.Misses)
	}
	if after.Evictions != 2 { // re-inserting b pushed out the LRU entry (d)
		t.Fatalf("evictions = %d, want 2", after.Evictions)
	}
}

func TestReplayCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewReplayCache()
	p := DefaultPlatform()
	opts := DefaultOptions()
	for i := 1; i <= 8; i++ {
		if _, err := c.Original(tinyTrace(float64(i)), p, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Each baseline is stored in the recording it was retimed from.
	s := c.Stats()
	if s.Entries != 8 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 8 entries and 0 evictions", s)
	}
}

// TestReplayCacheValidatesBeforeLookup pins that a cached lookup rejects an
// out-of-range model exactly as an uncached build does, even once the key's
// skeleton and baseline are memoized, and that a rejected lookup inserts no
// entry (a NaN key would never hit, so it would otherwise grow the cache on
// every call).
func TestReplayCacheValidatesBeforeLookup(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(13, 4, 2, p.EagerLimit)
	c := NewReplayCache()
	if _, err := c.Original(tr, p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	entries := c.Len()
	bad := []Options{
		{Beta: math.NaN(), FMax: 2.3},
		{Beta: 7, FMax: 2.3},
		{Beta: -3, FMax: 2.3},
		{Beta: 0.5, FMax: math.NaN()},
	}
	for _, o := range bad {
		_, want := BuildSkeleton(tr, p, o)
		if want == nil {
			t.Fatalf("β=%v FMax=%v: uncached build accepted", o.Beta, o.FMax)
		}
		for i := 0; i < 2; i++ {
			_, errSk := c.SkeletonFor(tr, p, o)
			_, errOrig := c.Original(tr, p, o)
			for name, err := range map[string]error{"SkeletonFor": errSk, "Original": errOrig} {
				if err == nil || err.Error() != want.Error() {
					t.Errorf("β=%v FMax=%v: cached %s returned %v, want %v", o.Beta, o.FMax, name, err, want)
					continue
				}
				if stage, _ := stagerr.StageOf(err); stage != stagerr.Validate {
					t.Errorf("β=%v FMax=%v: cached %s stage %q, want %q", o.Beta, o.FMax, name, stage, stagerr.Validate)
				}
			}
		}
	}
	if c.Len() != entries {
		t.Errorf("rejected lookups grew the cache from %d to %d entries", entries, c.Len())
	}
}

// TestReplayCacheBaselineSharedAcrossBeta pins that a baseline is keyed
// without β: at FMax every slowdown is exactly 1, so one baseline (in its
// recording) serves every β.
func TestReplayCacheBaselineSharedAcrossBeta(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(14, 4, 2, p.EagerLimit)
	c := NewReplayCache()
	a, err := c.Original(tr, p, Options{Beta: 0.2, FMax: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Original(tr, p, Options{Beta: 0.9, FMax: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("a baseline at another β is not the memoized Result")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1 (one recording)", c.Len())
	}
	want, err := Simulate(tr, p, Options{Beta: 0.9, FMax: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "baseline at another β", b, want)
}

// TestReplayCacheBoundOfOne pins that a baseline hits at a bound of one
// recording: the baseline lives in the recording, so filling it inserts
// nothing that could evict it.
func TestReplayCacheBoundOfOne(t *testing.T) {
	c := NewReplayCacheWithLimit(1)
	tr := tinyTrace(1)
	for i := 0; i < 3; i++ {
		if _, err := c.Original(tr, DefaultPlatform(), DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	want := CacheStats{Hits: 2, Misses: 1, Evictions: 0, Entries: 1}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestReplayCacheBaselineFaultNotStored pins that a baseline retime that
// fails is returned to its reader and not stored: the next read retimes
// again and succeeds, and the cache memoizes no error.
func TestReplayCacheBaselineFaultNotStored(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(15, 4, 2, p.EagerLimit)
	c := NewReplayCache()
	opts := DefaultOptions()
	if _, err := c.SkeletonFor(tr, p, opts); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewRegistry(3, map[faults.Point]uint64{faults.Retime: 1}))
	defer faults.Disable()
	if _, err := c.Original(tr, p, opts); !faults.IsInjected(err) {
		t.Fatalf("baseline read under an injected retime fault returned %v", err)
	}
	faults.Disable()
	got, err := c.Original(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Original(tr, p, opts); again != got {
		t.Error("a baseline retimed after a fault is not stored")
	}
	if errs := c.MemoizedErrors(); len(errs) != 0 {
		t.Errorf("memoized errors after a baseline fault: %v", errs)
	}
	want, err := Simulate(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "baseline after a fault", got, want)
}

// TestReplayCacheConcurrentReadersShareOneRecording pins that concurrent
// first readers of one key, through every entry point, share one recording
// and one Result per baseline.
func TestReplayCacheConcurrentReadersShareOneRecording(t *testing.T) {
	const n = 8
	p := DefaultPlatform()
	tr := randomValidTrace(16, 4, 2, p.EagerLimit)
	c := NewReplayCache()
	opts := DefaultOptions()
	withTL := opts
	withTL.RecordTimeline = true
	var (
		wg    sync.WaitGroup
		plain [n]*Result
		tl    [n]*Result
		skels [n]*Skeleton
	)
	for i := 0; i < n; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			var err error
			if plain[i], err = c.Original(tr, p, opts); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			var err error
			if tl[i], err = c.Original(tr, p, withTL); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			var err error
			if skels[i], err = c.SkeletonFor(tr, p, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plain[i] != plain[0] || tl[i] != tl[0] || skels[i] != skels[0] {
			t.Fatalf("reader %d got a different pointer", i)
		}
	}
	if plain[0] == tl[0] || tl[0].Timeline == nil || plain[0].Timeline != nil {
		t.Error("the baselines with and without a timeline are not distinct")
	}
	if s := c.Stats(); s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 entry", s)
	}
}
