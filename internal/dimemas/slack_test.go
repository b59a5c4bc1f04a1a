package dimemas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stagerr"
)

// slackFreqs is an ascending gear ladder topped by the tests' FMax.
var slackFreqs = []float64{0.8, 1.1, 1.4, 1.7, 2.0, 2.3}

// checkSlackTable holds one table against the retime passes it claims to
// predict: every certified downshift — alone, and together with random
// further downshifts elsewhere — retimes strictly slower than the base
// vector under the same load scale. It returns how many downshifts were
// certified.
func checkSlackTable(t *testing.T, label string, sk *Skeleton, base []int, scale []float64, rng *rand.Rand) int {
	t.Helper()
	freqs := make([]float64, len(base))
	for r, gi := range base {
		freqs[r] = slackFreqs[gi]
	}
	tab, err := sk.Slack(freqs, scale)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sk.RetimeScaled(freqs, scale, false)
	if err != nil {
		t.Fatal(err)
	}
	certified := 0
	probe := make([]float64, len(base))
	for r := range base {
		for gi := 0; gi < base[r]; gi++ {
			if !tab.Slower(r, slackFreqs[gi]) {
				continue
			}
			certified++
			copy(probe, freqs)
			probe[r] = slackFreqs[gi]
			for pass := 0; pass < 2; pass++ {
				res, err := sk.RetimeScaled(probe, scale, false)
				if err != nil {
					t.Fatal(err)
				}
				if !(res.Time > ref.Time) {
					t.Fatalf("%s: rank %d at %v GHz certified slower, but retimes to %v (base %v, probe %v)",
						label, r, slackFreqs[gi], res.Time, ref.Time, probe)
				}
				// Second pass: the same move on a vector that also lowers
				// other ranks, which the certificate covers too.
				for o := range probe {
					if o != r && base[o] > 0 && rng.Intn(3) == 0 {
						probe[o] = slackFreqs[rng.Intn(base[o])]
					}
				}
			}
		}
	}
	return certified
}

func TestSlackCertifiesOnlySlowerProbes(t *testing.T) {
	certified := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range []int{2, 4, 8} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed*31 + int64(n)))
				scaleRng := rand.New(rand.NewSource(seed*37 + int64(n)))
				machines := []Machine{FlatMachine(p), {Base: p, Topo: randomTopology(rng, n), Cap: randomCapability(rng, n)}}
				for mi, m := range machines {
					for _, beta := range []float64{0, 0.5, 1} {
						sk, err := BuildSkeletonMachine(tr, m, Options{Beta: beta, FMax: 2.3})
						if err != nil {
							t.Fatal(err)
						}
						top := make([]int, n)
						random := make([]int, n)
						scale := make([]float64, n)
						for r := range top {
							top[r] = len(slackFreqs) - 1
							random[r] = rng.Intn(len(slackFreqs))
							scale[r] = 0.5 + scaleRng.Float64()
						}
						if n > 2 {
							scale[scaleRng.Intn(n)] = 0 // an idle rank
						}
						for vi, base := range [][]int{top, random} {
							for _, sc := range [][]float64{nil, scale} {
								label := fmt.Sprintf("seed=%d n=%d platform=%d machine=%d beta=%v base=%d scaled=%t", seed, n, pi, mi, beta, vi, sc != nil)
								certified += checkSlackTable(t, label, sk, base, sc, rng)
							}
						}
					}
				}
			}
		}
	}
	if certified == 0 {
		t.Fatal("the slack screen certified no downshift at all")
	}
	t.Logf("%d downshifts certified slower", certified)
}

func TestSlackNilTableAndBadFreqs(t *testing.T) {
	var tab *SlackTable
	if tab.Slower(0, 1) {
		t.Error("a nil table certified a probe")
	}
	sk, err := BuildSkeleton(randomValidTrace(3, 4, 2, 1024), DefaultPlatform(), Options{Beta: 0.5, FMax: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, freqs := range [][]float64{{1, 1}, {1, 1, 0, 1}, {1, math.NaN(), 1, 1}} {
		if _, err := sk.Slack(freqs, nil); err == nil {
			t.Errorf("Slack(%v) accepted an invalid vector", freqs)
		}
	}
	for _, scale := range [][]float64{{1, 1}, {1, 1, -1, 1}, {1, math.NaN(), 1, 1}, {1, 1, 1, math.Inf(1)}} {
		_, err := sk.Slack(nil, scale)
		if stage, ok := stagerr.StageOf(err); !ok || stage != stagerr.Validate {
			t.Errorf("Slack(nil, %v) = %v, want a %q-stage error", scale, err, stagerr.Validate)
		}
	}
}
