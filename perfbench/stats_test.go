package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTailNeverBelowP50(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.Intn(400))
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 10
			if rng.Intn(50) == 0 {
				xs[i] = math.Inf(1)
			}
		}
		for _, p := range []float64{75, 90, 95, 99} {
			s := summarize(xs, p)
			if s.HasTail && s.Tail < s.P50 {
				t.Fatalf("trial %d p%g: tail %v below p50 %v", trial, p, s.Tail, s.P50)
			}
		}
	}
}

// A run of a few two-second ops, like the paper suite's. A tail taken from
// other samples than p50 once came out below it (1582 vs 1673 ms); here
// there are too few samples to report a tail at all.
func TestPaperSuiteRunHasNoTail(t *testing.T) {
	ops := []float64{1673, 1582, 1701, 1690, 1655}
	s := summarize(ops, 90)
	if s.HasTail {
		t.Fatalf("tail %v reported from %d samples", s.Tail, len(ops))
	}
	if s.P50 != 1673 {
		t.Fatalf("p50 = %v, want 1673", s.P50)
	}
	// Even with enough samples the tail comes from the same sorted slice.
	var many []float64
	for i := 0; i < 10; i++ {
		many = append(many, ops...)
	}
	many = append(many, 1582, 1582, 1582, 1582, 1582, 1582, 1582, 1582, 1582, 1582)
	if s := summarize(many, 75); !s.HasTail || s.Tail < s.P50 {
		t.Fatalf("60 samples at p75: tail %v (reported %v), p50 %v", s.Tail, s.HasTail, s.P50)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// p90 of 99 samples is rank 90: 9 beyond.
	if s := summarize(xs(99), 90); s.HasTail {
		t.Errorf("99 samples: tail reported with 9 samples beyond p90")
	}
	// p90 of 100 samples is rank 90: 10 beyond.
	if s := summarize(xs(100), 90); !s.HasTail || s.Tail != 90 {
		t.Errorf("100 samples: tail %v (reported %v), want 90", s.Tail, s.HasTail)
	}
	// A percentile at or below the median is never a tail.
	if s := summarize(xs(1000), 50); s.HasTail {
		t.Errorf("p50 reported as a tail")
	}
}

func TestFailedOpsSortAsInf(t *testing.T) {
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 15; i++ {
		xs = append(xs, math.Inf(1))
	}
	s := summarize(xs, 90)
	if !s.HasTail || !math.IsInf(s.Tail, 1) {
		t.Fatalf("15%% failures: tail %v, want +Inf", s.Tail)
	}
	if s.P50 != 1 {
		t.Fatalf("p50 = %v, want 1", s.P50)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// mixed builds n samples: share of them from class "fast" (1 ms plus a
// little spread), the rest from class "slow" at slowMs.
func mixed(n int, share, slowMs float64) []sample {
	var out []sample
	for i := 0; i < n; i++ {
		jitter := float64(i%10) / 100
		if float64(i) < share*float64(n) {
			out = append(out, sample{"fast", 1 + jitter})
		} else {
			out = append(out, sample{"slow", slowMs + jitter})
		}
	}
	return out
}

func TestClassGuard(t *testing.T) {
	// Boundary at 30: p50 and p90 both sit 20+ points inside "slow".
	ok := mixed(1000, 0.3, 5)
	if err := checkClassGuard(ok, classLayout(ok), 50, 90); err != nil {
		t.Fatalf("separated classes rejected: %v", err)
	}
	// Boundary at 45: p50 is 5 points from it.
	near := mixed(1000, 0.45, 5)
	err := checkClassGuard(near, classLayout(near), 50, 90)
	if err == nil || !strings.Contains(err.Error(), "boundary") {
		t.Fatalf("p50 near a boundary not rejected: %v", err)
	}
	// Overlapping classes: "slow" costs what "fast" does, so the samples
	// around p75 are 40% "fast" although p75 lies 35 points inside "slow".
	overlap := mixed(1000, 0.4, 1)
	err = checkClassGuard(overlap, classLayout(overlap), 75)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping classes not rejected: %v", err)
	}
	// A single class has no boundary.
	one := mixed(100, 1, 5)
	if err := checkClassGuard(one, classLayout(one), 50, 90); err != nil {
		t.Fatalf("single class rejected: %v", err)
	}
}

func TestQuietWindowsAreTheLeastStolenHalf(t *testing.T) {
	p := phase{samples: make([]sample, 50)}
	for i, steal := range []float64{9, 1, 7, 0, 3} {
		p.windows = append(p.windows, window{first: 10 * i, last: 10*i + 10, wall: time.Second, steal: steal})
	}
	var got []float64
	for _, w := range p.quiet() {
		got = append(got, w.steal)
	}
	if want := []float64{1, 0, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quiet windows have steal %v, want %v (least stolen half, in phase order)", got, want)
	}
	_, _, samples := p.quietStats()
	if len(samples) != 30 {
		t.Fatalf("quiet samples = %d, want 30", len(samples))
	}
}
