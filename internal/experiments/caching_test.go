package experiments

// Tests for the baseline-replay memoization and the sweep worker pool's
// error handling introduced with the event-driven engine.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
)

// TestCachedBaselineByteIdentical runs the full pipeline for all twelve
// Table 3 applications two ways — uncached and through a shared ReplayCache
// — and requires byte-identical Results (every float compared exactly, via
// reflect.DeepEqual).
func TestCachedBaselineByteIdentical(t *testing.T) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	cache := dimemas.NewReplayCache()
	for _, app := range AppNames() {
		tr, err := sharedSuite.Trace(app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := analysis.Config{
			Trace:     tr,
			Platform:  sharedSuite.Gen.Platform,
			Set:       six,
			Algorithm: core.MAX,
			Beta:      &sharedSuite.Beta,
			FMax:      sharedSuite.Gen.FMax,
		}
		uncached, err := analysis.Run(cfg)
		if err != nil {
			t.Fatalf("%s: uncached: %v", app, err)
		}

		withCache := cfg
		withCache.Cache = cache
		// Twice: the first run fills the cache, the second consumes it.
		if _, err := analysis.Run(withCache); err != nil {
			t.Fatalf("%s: cache fill: %v", app, err)
		}
		cached, err := analysis.Run(withCache)
		if err != nil {
			t.Fatalf("%s: cached: %v", app, err)
		}
		if !reflect.DeepEqual(uncached, cached) {
			t.Errorf("%s: cached result differs from uncached", app)
		}
	}
	// One recording (skeleton and baselines) per (trace, FMax, platform):
	// twelve apps, one key each.
	if cache.Len() != len(AppNames()) {
		t.Errorf("cache holds %d entries, want %d (one recording per app)", cache.Len(), len(AppNames()))
	}
}

// TestSuiteSharesBaselinesAcrossVariants verifies the economic point of the
// cache: a multi-variant sweep memoizes exactly one recording per app, no
// matter how many variants retime it.
func TestSuiteSharesBaselinesAcrossVariants(t *testing.T) {
	s := QuickSuite()
	s.cache = sharedSuite.cache // reuse generated traces
	sw, err := s.Figure3()      // 12 apps × 3 variants
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.replays.Len(), len(sw.Apps); got != want {
		t.Errorf("sweep memoized %d entries for %d apps × %d variants, want %d (one recording per app)",
			got, len(sw.Apps), len(sw.Cols), want)
	}
}

// TestFigure5SharesSkeletonsAcrossBeta verifies that the β sweep records
// each app once: one recording per app serves all eight β.
func TestFigure5SharesSkeletonsAcrossBeta(t *testing.T) {
	s := QuickSuite()
	s.cache = sharedSuite.cache // reuse generated traces
	sw, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.replays.Len(), len(sw.Apps); got != want {
		t.Errorf("β sweep memoized %d entries for %d apps × %d β, want %d (one recording per app)",
			got, len(sw.Apps), len(sw.Cols), want)
	}
}

// TestSweepReturnsFirstErrorDeterministically makes a later cell fail (nil
// gear set) and requires serial and parallel runs to report the identical
// first-failing-cell error, repeatedly.
func TestSweepReturnsFirstErrorDeterministically(t *testing.T) {
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"BT-MZ-32", "CG-64"}
	variants := []variant{
		{name: "ok", set: six, alg: core.MAX},
		{name: "broken", set: nil, alg: core.MAX}, // analysis rejects the nil set
		{name: "also-broken", set: nil, alg: core.AVG},
	}
	s := QuickSuite()
	s.cache = sharedSuite.cache
	s.Workers = 0
	_, serialErr := s.runSweep("err", apps, variants)
	if serialErr == nil {
		t.Fatal("serial sweep should fail")
	}
	if !errors.Is(serialErr, core.ErrNilSet) {
		t.Fatalf("unexpected serial error: %v", serialErr)
	}
	if !strings.Contains(serialErr.Error(), "BT-MZ-32 / broken") {
		t.Fatalf("serial error does not name the first failing cell: %v", serialErr)
	}
	for i := 0; i < 5; i++ {
		p := QuickSuite()
		p.cache = sharedSuite.cache
		p.Workers = 8
		_, parErr := p.runSweep("err", apps, variants)
		if parErr == nil {
			t.Fatal("parallel sweep should fail")
		}
		if parErr.Error() != serialErr.Error() {
			t.Errorf("run %d: parallel error %q != serial error %q", i, parErr, serialErr)
		}
	}
}
