package dimemas

import (
	"testing"

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
	// The first baseline fill also records the skeleton it is retimed
	// from: two misses, two entries; the second lookup hits the baseline.
	s := c.Stats()
	want := CacheStats{Hits: 1, Misses: 2, Evictions: 0, Entries: 2}
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}

	// Explicit per-rank frequencies bypass the cache entirely.
	bypass := opts
	bypass.Freqs = []float64{2.3, 2.3}
	if _, err := c.Original(tr, p, bypass); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != want {
		t.Fatalf("stats after bypass = %+v, want unchanged %+v", s, want)
	}
}

func TestReplayCacheNilStats(t *testing.T) {
	var c *ReplayCache
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zeros", s)
	}
}

// TestReplayCacheLRUEviction drives the LRU on skeleton entries, which
// are one entry per trace; a baseline fill adds its skeleton as a second
// entry, which TestReplayCacheStatsCounters pins.
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
	// Each baseline is memoized beside the skeleton it was retimed from.
	s := c.Stats()
	if s.Entries != 16 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 16 entries and 0 evictions", s)
	}
}
