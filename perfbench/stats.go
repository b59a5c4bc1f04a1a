package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyondTail is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyondTail = 10

// classGuardPoints is how far, in percentile points, p50 and the tail must
// sit from every boundary between two request classes.
const classGuardPoints = 10

// overlapWindow and minClassPurity define the overlap check: the samples
// within overlapWindow percentile points of p50 or the tail must be at least
// minClassPurity from the class expected there.
const (
	overlapWindow  = 5.0
	minClassPurity = 0.7
)

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// latencySummary is the p50 and the optional tail of one run's latency
// samples, both read from the same sorted slice.
type latencySummary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
	HasTail bool
}

// summarize sorts a copy of samples (failed ops are +Inf, so they sort last)
// and reads p50 and the tail percentile from it. The tail is reported only
// when at least minBeyondTail samples lie beyond it and tailPct is above the
// median; reading both from one sorted slice makes tail < p50 impossible.
func summarize(samples []float64, tailPct float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), TailPct: tailPct}
	if len(s) == 0 {
		return out
	}
	out.P50 = s[rank(len(s), 50)-1]
	if tailPct > 50 && tailPct < 100 {
		r := rank(len(s), tailPct)
		if len(s)-r >= minBeyondTail {
			out.Tail = s[r-1]
			out.HasTail = true
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same method as Python's statistics.quantiles(xs, n=4) ("exclusive").
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method, clamping included.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// sample is one op's outcome for the class guard.
type sample struct {
	Class string
	Ms    float64 // +Inf for a failed op
}

// classShare describes one request class of a mixed workload.
type classShare struct {
	Class    string  `json:"class"`
	Share    float64 `json:"share"`     // fraction of all samples
	MedianMs float64 `json:"median_ms"` // the class's own median latency
	From     float64 `json:"from_pct"`  // cumulative percentile range the class occupies
	To       float64 `json:"to_pct"`
}

// classLayout orders the request classes by median latency and assigns
// each the cumulative percentile range its share occupies in the sorted
// samples of the whole run.
func classLayout(samples []sample) []classShare {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.Class] = append(by[s.Class], s.Ms)
	}
	out := make([]classShare, 0, len(by))
	for c, xs := range by {
		sum := summarize(xs, 0)
		out = append(out, classShare{Class: c, Share: float64(len(xs)) / float64(len(samples)), MedianMs: sum.P50})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MedianMs != out[j].MedianMs {
			return out[i].MedianMs < out[j].MedianMs
		}
		return out[i].Class < out[j].Class
	})
	cum := 0.0
	for i := range out {
		out[i].From = cum * 100
		cum += out[i].Share
		out[i].To = cum * 100
	}
	return out
}

// checkClassGuard fails when a reported percentile sits within
// classGuardPoints of a boundary between two classes, or when fewer than
// minClassPurity of the samples within overlapWindow points of it belong
// to the class whose range holds it (the classes' latencies overlap).
// Either way the percentile would move with the class mixture rather than
// with the code.
func checkClassGuard(samples []sample, layout []classShare, pcts ...float64) error {
	if len(layout) < 2 {
		return nil
	}
	sorted := append([]sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Ms < sorted[j].Ms })
	var errs []string
	for _, p := range pcts {
		for _, c := range layout[:len(layout)-1] {
			if math.Abs(p-c.To) < classGuardPoints {
				errs = append(errs, fmt.Sprintf("p%g is %.1f points from the %s class boundary at %.1f", p, math.Abs(p-c.To), c.Class, c.To))
			}
		}
		want := ""
		for _, c := range layout {
			if p > c.From && p <= c.To {
				want = c.Class
			}
		}
		lo, hi := rank(len(sorted), p-overlapWindow), rank(len(sorted), p+overlapWindow)
		in := 0
		for _, s := range sorted[lo-1 : hi] {
			if s.Class == want {
				in++
			}
		}
		if purity := float64(in) / float64(hi-lo+1); purity < minClassPurity {
			errs = append(errs, fmt.Sprintf("only %.0f%% of the samples within %g points of p%g are %s samples (classes overlap)", 100*purity, overlapWindow, p, want))
		}
	}
	if len(errs) > 0 {
		var shares []string
		for _, c := range layout {
			shares = append(shares, fmt.Sprintf("%s %.1f%% (p%.0f-p%.0f, median %.3g ms)", c.Class, 100*c.Share, c.From, c.To, c.MedianMs))
		}
		return fmt.Errorf("class guard: %s [classes: %s]", strings.Join(errs, "; "), strings.Join(shares, ", "))
	}
	return nil
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
