package dimemas

// One recording serves every β: a skeleton recorded at one β and retimed
// at another must match a fresh SimulateMachine at the second β bit for
// bit, through every retime tier and through the cache's baseline fill.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// unitBeta folds an arbitrary fuzz input into [0, 1].
func unitBeta(b float64) float64 {
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return 0.5
	}
	b = math.Abs(b)
	if b > 1 {
		b = math.Mod(b, 1)
	}
	return b
}

func FuzzRecordingAnyBeta(f *testing.F) {
	f.Add(int64(1), uint8(2), 0.5, 0.5, false)
	f.Add(int64(2), uint8(4), 0.5, 0.0, false)
	f.Add(int64(3), uint8(6), 0.0, 1.0, true)
	f.Add(int64(4), uint8(5), 1.0, 0.25, true)
	f.Add(int64(-9), uint8(3), 0.8, 0.3, false)
	f.Fuzz(func(t *testing.T, seed int64, nr uint8, recordBeta, beta float64, hetero bool) {
		recordBeta, beta = unitBeta(recordBeta), unitBeta(beta)
		n := 2 + int(nr%7)
		platforms := equivPlatforms()
		p := platforms[uint64(seed)%uint64(len(platforms))]
		tr := randomValidTrace(seed, n, 2, p.EagerLimit)
		// Overrides equal to the recording β and to the retimed β: both
		// must stay overrides, never fold into the default-β bursts.
		for r := 0; r < n; r++ {
			tr.Add(r, trace.ComputeBeta(0.25+float64(r), beta), trace.ComputeBeta(0.5, recordBeta))
		}
		rng := rand.New(rand.NewSource(seed))
		m := FlatMachine(p)
		if hetero {
			m = Machine{Base: p, Topo: randomTopology(rng, n), Cap: randomCapability(rng, n)}
		}
		const fmax = 2.3
		rec, err := BuildSkeletonMachine(tr, m, Options{Beta: recordBeta, FMax: fmax})
		if err != nil {
			t.Fatal(err)
		}
		sk := rec.withBeta(beta)
		opts := Options{Beta: beta, FMax: fmax}
		simulate := func(tr *trace.Trace, freqs []float64, timeline bool) *Result {
			o := opts
			o.Freqs, o.RecordTimeline = freqs, timeline
			want, err := SimulateMachine(tr, m, o)
			if err != nil {
				t.Fatal(err)
			}
			return want
		}
		check := func(label string, got, want *Result) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at β %v (recorded at %v): %+v, want %+v", label, beta, recordBeta, got, want)
			}
		}

		freqSets := [][]float64{nil, randomGearVector(rng, n), randomGearVector(rng, n)}
		var st DeltaState
		for _, freqs := range freqSets {
			for _, timeline := range []bool{false, true} {
				got, err := sk.Retime(freqs, timeline)
				if err != nil {
					t.Fatal(err)
				}
				check("Retime", got, simulate(tr, freqs, timeline))
			}
			got, err := sk.RetimeDelta(&st, freqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("RetimeDelta", got, simulate(tr, freqs, false))
			// Power-of-two (and zero) load scales multiply exactly, so the
			// capability stretch and the scale commute bit for bit.
			scale := make([]float64, n)
			for r := range scale {
				scale[r] = [...]float64{0, 0.5, 1, 2}[rng.Intn(4)]
			}
			scaled := tr.ScaleCompute(func(r int, _ trace.Record) float64 { return scale[r] })
			got, err = sk.RetimeScaled(freqs, scale, false)
			if err != nil {
				t.Fatal(err)
			}
			check("RetimeScaled", got, simulate(scaled, freqs, false))
		}
		batch, err := sk.RetimeBatch(freqSets)
		if err != nil {
			t.Fatal(err)
		}
		for c, freqs := range freqSets {
			got := batch.At(c)
			check("RetimeBatch", &got, simulate(tr, freqs, false))
		}

		// The cache records at recordBeta, then serves β from that
		// recording: the skeleton it returns, and the baseline it fills.
		cache := NewReplayCache()
		if _, err := cache.SkeletonForMachine(tr, m, Options{Beta: recordBeta, FMax: fmax}); err != nil {
			t.Fatal(err)
		}
		cached, err := cache.SkeletonForMachine(tr, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.Retime(freqSets[1], false)
		if err != nil {
			t.Fatal(err)
		}
		check("cached skeleton", got, simulate(tr, freqSets[1], false))
		for _, timeline := range []bool{false, true} {
			o := opts
			o.RecordTimeline = timeline
			got, err := cache.ReplayMachine(tr, m, o)
			if err != nil {
				t.Fatal(err)
			}
			check("cached baseline", got, simulate(tr, nil, timeline))
		}
		if cache.Len() != 1 {
			t.Fatalf("cache holds %d entries, want one recording", cache.Len())
		}
	})
}
