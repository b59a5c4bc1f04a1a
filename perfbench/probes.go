package main

import (
	"math/rand"
	"strconv"

	"repro/internal/dimemas"
	"repro/internal/trace"
)

// probeWalkSteps is the length of the seeded single-rank mutation walk the
// delta and scaled retime probes take.
const probeWalkSteps = 400

// generateProbe times workload.Generate of each key as the server would
// generate it.
func generateProbe(tr *tracer, keys ...genKey) ([]*trace.Trace, error) {
	var out []*trace.Trace
	for i, k := range keys {
		sp := &spanner{tr: tr, req: "probe-gen-" + strconv.Itoa(i)}
		var t *trace.Trace
		if err := sp.do("workload.generate", 1, func() (err error) {
			t, err = generate(k)
			return err
		}); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// retimeWalkProbe takes a seeded walk over single-rank gear changes on t's
// skeleton: each step retimes the candidate with RetimeDelta (keeping it
// half the time, as an optimizer would) and RetimeScaledInto under a
// seeded per-rank load scale. It records the delta state's contained ratio,
// (NoChange + Sparse) ÷ Passes.
func retimeWalkProbe(tr *tracer, t *trace.Trace, seed int64, tag string) error {
	skel, err := dimemas.BuildSkeleton(t, dimemas.DefaultPlatform(), baseOpts())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	n := skel.NumRanks()
	freqs := make([]float64, n)
	scale := make([]float64, n)
	for r := range freqs {
		freqs[r] = baseOpts().FMax
		scale[r] = 1
	}
	gears := []float64{1.4, 1.6, 1.8, 2.0, 2.1, 2.3}
	var st dimemas.DeltaState
	if _, err := skel.RetimeDelta(&st, freqs, nil); err != nil {
		return err
	}
	var res dimemas.Result
	cand := make([]float64, n)
	for i := 0; i < probeWalkSteps; i++ {
		copy(cand, freqs)
		r := rng.Intn(n)
		cand[r] = gears[rng.Intn(len(gears))]
		sp := &spanner{tr: tr, req: "probe-" + tag + "-" + strconv.Itoa(i)}
		if err := sp.do("dimemas.retime_delta", 1, func() error {
			_, err := skel.RetimeDelta(&st, cand, nil)
			return err
		}); err != nil {
			return err
		}
		if rng.Intn(2) == 0 {
			copy(freqs, cand)
		}
		scale[rng.Intn(n)] = 0.9 + 0.2*rng.Float64()
		if err := sp.do("dimemas.retime_scaled", 1, func() error { return skel.RetimeScaledInto(&res, cand, scale) }); err != nil {
			return err
		}
	}
	s := st.Stats()
	if s.Passes > 0 {
		tr.counts["dimemas.delta_contained_ratio"] = append(tr.counts["dimemas.delta_contained_ratio"], float64(s.NoChange+s.Sparse)/float64(s.Passes))
	}
	return nil
}

// whatifExtra times generation of the workload's first key.
func whatifExtra(tr *tracer) error {
	_, err := generateProbe(tr, genKey{app: whatifApp, iterations: whatifIterBase})
	return err
}

// ingestExtra times generation of the ingested trace shape.
func ingestExtra(tr *tracer) error {
	_, err := generateProbe(tr, genKey{app: ingestApp, iterations: ingestIters})
	return err
}

// controlExtra times generation of both traces, then the delta and scaled
// retime walk on each.
func controlExtra(seed int64) func(tr *tracer) error {
	return func(tr *tracer) error {
		ts, err := generateProbe(tr, genKey{app: capApp, iterations: controlIters}, genKey{app: rebalanceApp, iterations: controlIters})
		if err != nil {
			return err
		}
		for i, t := range ts {
			if err := retimeWalkProbe(tr, t, seed+int64(i), "walk"+strconv.Itoa(i)); err != nil {
				return err
			}
		}
		return nil
	}
}
