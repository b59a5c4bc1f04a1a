package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/gearopt"
	"repro/internal/power"
	"repro/internal/powercap"
	"repro/internal/predict"
	"repro/internal/rebalance"
	"repro/internal/server"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// seqLen is the length of every serving workload's seeded op sequence;
// the measured phase cycles through it.
const seqLen = 4096

// gearChoice is a gear set and algorithm a request asks for, kept next to
// its wire form so the layer replay can rebuild the same dvfs.Set.
type gearChoice struct {
	Kind      string
	N         int
	Overclock bool
	Algorithm string
}

func (g gearChoice) spec() server.GearSetSpec {
	return server.GearSetSpec{Kind: g.Kind, N: g.N, Overclock: g.Overclock}
}

func (g gearChoice) set() (*dvfs.Set, error) {
	var (
		s   *dvfs.Set
		err error
	)
	if g.Kind == "exponential" {
		s, err = dvfs.Exponential(g.N)
	} else {
		s, err = dvfs.Uniform(g.N)
	}
	if err != nil || !g.Overclock {
		return s, err
	}
	return s.WithOverclockGear(dvfs.Gear{Freq: dvfs.OverclockFreq, Volt: dvfs.OverclockVolt})
}

func (g gearChoice) algo() core.Algorithm {
	if g.Algorithm == "AVG" {
		return core.AVG
	}
	return core.MAX
}

// gearCatalogue lists the 16 gear choices requests draw from: both set
// kinds at four sizes, each under MAX and under AVG with the paper's
// overclock gear.
func gearCatalogue() []gearChoice {
	var out []gearChoice
	for _, kind := range []string{"uniform", "exponential"} {
		for _, n := range []int{4, 5, 6, 8} {
			out = append(out,
				gearChoice{Kind: kind, N: n, Algorithm: "MAX"},
				gearChoice{Kind: kind, N: n, Algorithm: "AVG", Overclock: true})
		}
	}
	return out
}

// shuffledGears returns k copies of the catalogue in a seeded order, so
// every batch built from it does the same work whatever the seed.
func shuffledGears(rng *rand.Rand, k int) []gearChoice {
	var out []gearChoice
	for i := 0; i < k; i++ {
		out = append(out, gearCatalogue()...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// batchItems renders gear choices as batch items.
func batchItems(gs []gearChoice) []server.AnalyzeBatchItem {
	out := make([]server.AnalyzeBatchItem, len(gs))
	for i, g := range gs {
		out[i] = server.AnalyzeBatchItem{Algorithm: g.Algorithm, GearSet: g.spec()}
	}
	return out
}

// strictDecode decodes a body the way the server does.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func encodeBody(v any) []byte { return append(marshal(v), '\n') }

// baseOpts are the replay options every request here resolves to.
func baseOpts() dimemas.Options {
	return dimemas.Options{Beta: timemodel.DefaultBeta, FMax: dvfs.FMax}
}

// genKey names one generated workload, as a TraceRef without quick does.
type genKey struct {
	app        string
	iterations int
}

// generate makes the trace the server generates for k.
func generate(k genKey) (*trace.Trace, error) {
	inst, err := workload.FindInstance(k.app)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = k.iterations
	return workload.Generate(inst, cfg)
}

// traceStore generates, on first use, the same traces the server generates
// for a TraceRef, each with a warm local replay cache, for the layer replays.
type traceStore struct {
	mu sync.Mutex
	m  map[genKey]*storedTrace
}

type storedTrace struct {
	tr    *trace.Trace
	cache *dimemas.ReplayCache
}

func (s *traceStore) get(k genKey) (*storedTrace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.m[k]; ok {
		return st, nil
	}
	tr, err := generate(k)
	if err != nil {
		return nil, err
	}
	st := &storedTrace{tr: tr, cache: dimemas.NewReplayCache()}
	if _, err := st.cache.Original(tr, dimemas.DefaultPlatform(), baseOpts()); err != nil {
		return nil, err
	}
	if _, err := st.cache.SkeletonFor(tr, dimemas.DefaultPlatform(), baseOpts()); err != nil {
		return nil, err
	}
	if s.m == nil {
		s.m = map[genKey]*storedTrace{}
	}
	s.m[k] = st
	return st, nil
}

// weighted picks class indices with the given weights.
func weighted(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// buildSeq draws the seeded op sequence: a class by weight, then one of
// that class's distinct requests uniformly.
func buildSeq(rng *rand.Rand, reqs []request, classes []string, weights []float64) []int {
	byClass := make([][]int, len(classes))
	for i, q := range reqs {
		for c, name := range classes {
			if q.class == name {
				byClass[c] = append(byClass[c], i)
			}
		}
	}
	seq := make([]int, seqLen)
	for i := range seq {
		pool := byClass[weighted(rng, weights)]
		seq[i] = pool[rng.Intn(len(pool))]
	}
	return seq
}

// ---- whatif-hot -----------------------------------------------------------

const (
	whatifApp      = "WRF-128"
	whatifIterBase = 20 // keys are WRF-128 at whatifIterBase .. +whatifKeys-1 iterations
	whatifKeys     = 8
)

var whatifClasses = []string{"replay", "analyze", "batch"}
var whatifWeights = []float64{0.05, 0.05, 0.90}

func setupWhatif(seed int64, keys int) (*servingRunner, error) {
	rng := rand.New(rand.NewSource(seed))
	store := &traceStore{}
	var reqs []request
	six, _ := dvfs.Uniform(6)
	var gearFreqs []float64
	for _, g := range six.Gears() {
		gearFreqs = append(gearFreqs, g.Freq)
	}
	for k := 0; k < keys; k++ {
		key := genKey{app: whatifApp, iterations: whatifIterBase + k}
		ref := server.TraceRef{App: key.app, Iterations: key.iterations}
		for v := 0; v < 2; v++ {
			freqs := make([]float64, 128)
			for r := range freqs {
				freqs[r] = gearFreqs[rng.Intn(len(gearFreqs))]
			}
			reqs = append(reqs, request{
				class: "replay", path: "/v1/replay",
				body:   marshal(server.ReplayRequest{Trace: ref, Freqs: freqs}),
				replay: replayFreqs(store, key),
			})
		}
		// The first two MAX and two AVG choices of a seeded shuffle, so
		// every key's analyses cost alike.
		taken := map[string]int{}
		for _, g := range shuffledGears(rng, 1) {
			if taken[g.Algorithm] == 2 {
				continue
			}
			taken[g.Algorithm]++
			reqs = append(reqs, request{
				class: "analyze", path: "/v1/analyze",
				body:   marshal(server.AnalyzeRequest{Trace: ref, Algorithm: g.Algorithm, GearSet: g.spec()}),
				replay: replayAnalyze(store, key, g),
			})
		}
		items := shuffledGears(rng, 1)
		reqs = append(reqs, request{
			class: "batch", path: "/v1/analyze/batch",
			body:   marshal(server.AnalyzeBatchRequest{Trace: ref, Items: batchItems(items)}),
			replay: replayBatch(store, key, "", items),
		})
	}
	f, err := newFleet(2, true)
	if err != nil {
		return nil, err
	}
	r := &servingRunner{f: f, reqs: reqs, direct: true}
	r.seq = buildSeq(rng, reqs, whatifClasses, whatifWeights)
	if err := r.fetchReferences(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// replayFreqs replays POST /v1/replay with explicit frequencies: a full
// retime of the memoized skeleton.
func replayFreqs(store *traceStore, key genKey) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.ReplayRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		st, err := store.get(key)
		if err != nil {
			return nil, err
		}
		skel, err := st.cache.SkeletonFor(st.tr, dimemas.DefaultPlatform(), baseOpts())
		if err != nil {
			return nil, err
		}
		var res *dimemas.Result
		if err := sp.do("dimemas.retime_full", 1, func() (err error) {
			res, err = skel.Retime(req.Freqs, false)
			return err
		}); err != nil {
			return nil, err
		}
		var out []byte
		sp.do("server.encode", 1, func() error { out = encodeBody(server.NewReplayResponse(st.tr.App, res)); return nil })
		return out, nil
	}
}

// replayAnalyze replays POST /v1/analyze on a warm cache: analysis.Run,
// then its assignment and full retime measured on their own as its logical
// children.
func replayAnalyze(store *traceStore, key genKey, g gearChoice) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.AnalyzeRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		st, err := store.get(key)
		if err != nil {
			return nil, err
		}
		set, err := g.set()
		if err != nil {
			return nil, err
		}
		var res *analysis.Result
		runID, err := sp.run("analysis.run", 1, func() (err error) {
			res, err = analysis.Run(analysis.Config{
				Trace: st.tr, Platform: dimemas.DefaultPlatform(), Power: power.DefaultConfig(),
				Set: set, Algorithm: g.algo(), Cache: st.cache,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := assignAndRetime(sp.under(runID), st, []gearChoice{g}, false); err != nil {
			return nil, err
		}
		var out []byte
		sp.do("server.encode", 1, func() error { out = encodeBody(server.NewAnalyzeResponse(set.Name(), res)); return nil })
		return out, nil
	}
}

// assignAndRetime replays the assignment of every gear choice against the
// trace's baseline and the retime of the resulting frequencies, one full
// retime each or one batch retime for all.
func assignAndRetime(sp *spanner, st *storedTrace, gs []gearChoice, batch bool) error {
	orig, err := st.cache.Original(st.tr, dimemas.DefaultPlatform(), baseOpts())
	if err != nil {
		return err
	}
	skel, err := st.cache.SkeletonFor(st.tr, dimemas.DefaultPlatform(), baseOpts())
	if err != nil {
		return err
	}
	vecs := make([][]float64, 0, len(gs))
	for _, g := range gs {
		set, err := g.set()
		if err != nil {
			return err
		}
		b := &core.Balancer{Set: set, Beta: timemodel.DefaultBeta, FMax: dvfs.FMax}
		var a *core.Assignment
		if err := sp.do("core.assign", 1, func() (err error) {
			a, err = b.Assign(g.algo(), orig.Compute)
			return err
		}); err != nil {
			return err
		}
		vecs = append(vecs, a.Freqs())
	}
	if batch {
		var out dimemas.BatchResult
		return sp.do("dimemas.retime_batch", len(vecs), func() error { return skel.RetimeBatchInto(&out, vecs) })
	}
	var out dimemas.Result
	for _, v := range vecs {
		if err := sp.do("dimemas.retime_full", 1, func() error { return skel.RetimeInto(&out, v) }); err != nil {
			return err
		}
	}
	return nil
}

// replayBatch replays POST /v1/analyze/batch. For a generated trace the
// cache is warm; for inline text (text != "") the trace is parsed and the
// batch builds its private cache, so validation, the baseline simulation
// and the skeleton recording are replayed as children too.
func replayBatch(store *traceStore, key genKey, text string, items []gearChoice) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.AnalyzeBatchRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		var (
			st  *storedTrace
			err error
		)
		if text == "" {
			st, err = store.get(key)
		} else {
			st = &storedTrace{}
			err = sp.do("trace.parse", len(req.Trace.Text), func() (err error) {
				st.tr, err = trace.Read(strings.NewReader(req.Trace.Text))
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		batchItems := make([]analysis.BatchItem, len(items))
		names := make([]string, len(items))
		for i, g := range items {
			set, err := g.set()
			if err != nil {
				return nil, err
			}
			batchItems[i] = analysis.BatchItem{Set: set, Algorithm: g.algo()}
			names[i] = set.Name()
		}
		var (
			results []*analysis.Result
			errs    []error
		)
		runID, err := sp.run("analysis.run_batch", 1, func() (err error) {
			results, errs, err = analysis.RunBatch(analysis.Config{
				Trace: st.tr, Platform: dimemas.DefaultPlatform(), Power: power.DefaultConfig(), Cache: st.cache,
			}, batchItems)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		child := sp.under(runID)
		if text != "" {
			// The batch's own private-cache work, on a fresh parse of the
			// same text so the one-time validation and index are paid again.
			fresh, err := trace.Read(strings.NewReader(text))
			if err != nil {
				return nil, err
			}
			if st.cache, err = simulateAndRecord(child, fresh); err != nil {
				return nil, err
			}
			st.tr = fresh
		}
		if err := assignAndRetime(child, st, items, true); err != nil {
			return nil, err
		}
		out := &server.AnalyzeBatchResponse{App: st.tr.App, Results: make([]*server.AnalyzeResponse, len(results))}
		var body []byte
		sp.do("server.encode", 1, func() error {
			for i, r := range results {
				out.Results[i] = server.NewAnalyzeResponse(names[i], r)
			}
			body = encodeBody(out)
			return nil
		})
		return body, nil
	}
}

// simulateAndRecord replays the uncached path of a freshly parsed trace:
// the first simulation pays validation and the replay index, measured as
// the first minus a second simulation; then the skeleton is recorded. It
// returns a cache holding the baseline and skeleton.
func simulateAndRecord(sp *spanner, tr *trace.Trace) (*dimemas.ReplayCache, error) {
	if _, err := simulateFresh(sp, tr); err != nil {
		return nil, err
	}
	cache := dimemas.NewReplayCache()
	if err := sp.do("dimemas.skeleton_record", 1, func() error {
		_, err := cache.SkeletonFor(tr, dimemas.DefaultPlatform(), baseOpts())
		return err
	}); err != nil {
		return nil, err
	}
	_, err := cache.Original(tr, dimemas.DefaultPlatform(), baseOpts())
	return cache, err
}

// simulateFresh times two simulations of a never-replayed trace: the
// second is dimemas.simulate, the first minus the second is trace.validate
// (Validate plus the replay index, paid once per trace). It returns the
// simulated baseline.
func simulateFresh(sp *spanner, tr *trace.Trace) (*dimemas.Result, error) {
	t0 := time.Now()
	if _, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), baseOpts()); err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), baseOpts())
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	sp.tr.add(sp.req, "trace.validate", sp.parent, t0, t0.Add(max(t1.Sub(t0)-t2.Sub(t1), 0)), 1)
	sp.tr.add(sp.req, "dimemas.simulate", sp.parent, t1, t2, 1)
	return res, nil
}

// ---- ingest-inline --------------------------------------------------------

const (
	ingestApp      = "WRF-128"
	ingestIters    = 3
	ingestVariants = 8
	ingestBatch    = 128
)

var ingestClasses = []string{"replay", "batch"}
var ingestWeights = []float64{0.80, 0.20}

// ingestTexts renders seeded variants of one trace shape: the generated
// trace with every compute burst scaled by a seeded factor within ±2%.
func ingestTexts(seed int64) ([]string, error) {
	base, err := generate(genKey{app: ingestApp, iterations: ingestIters})
	if err != nil {
		return nil, err
	}
	texts := make([]string, ingestVariants)
	for v := range texts {
		rng := rand.New(rand.NewSource(seed*1000 + int64(v)))
		tr := base.ScaleCompute(func(int, trace.Record) float64 { return 1 + 0.02*(2*rng.Float64()-1) })
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			return nil, err
		}
		texts[v] = sb.String()
	}
	return texts, nil
}

func setupIngest(seed int64) (*servingRunner, error) {
	texts, err := ingestTexts(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for _, text := range texts {
		ref := server.TraceRef{Text: text}
		reqs = append(reqs, request{
			class: "replay", path: "/v1/replay",
			body:   marshal(server.ReplayRequest{Trace: ref}),
			replay: replayInline(text),
		})
		items := shuffledGears(rng, ingestBatch/len(gearCatalogue()))
		reqs = append(reqs, request{
			class: "batch", path: "/v1/analyze/batch",
			body:   marshal(server.AnalyzeBatchRequest{Trace: ref, Items: batchItems(items)}),
			replay: replayBatch(nil, genKey{}, text, items),
		})
	}
	f, err := newFleet(1, false)
	if err != nil {
		return nil, err
	}
	r := &servingRunner{f: f, reqs: reqs}
	r.seq = buildSeq(rng, reqs, ingestClasses, ingestWeights)
	if err := r.fetchReferences(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// replayInline replays POST /v1/replay of an inline trace: parse, then an
// uncached simulation that pays validation and indexing.
func replayInline(text string) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.ReplayRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		var tr *trace.Trace
		if err := sp.do("trace.parse", len(req.Trace.Text), func() (err error) {
			tr, err = trace.Read(strings.NewReader(req.Trace.Text))
			return err
		}); err != nil {
			return nil, err
		}
		res, err := simulateFresh(sp, tr)
		if err != nil {
			return nil, err
		}
		var out []byte
		sp.do("server.encode", 1, func() error { out = encodeBody(server.NewReplayResponse(tr.App, res)); return nil })
		return out, nil
	}
}

// ---- control-loop ---------------------------------------------------------

const (
	capApp        = "WRF-128"
	rebalanceApp  = "SPECFEM3D-96"
	computePeakW  = 9.703125 // one rank's all-compute power at fmax
	controlIters  = 20
	rebalanceRuns = 60
)

var controlClasses = []string{"gearopt", "rebalance", "powercap"}
var controlWeights = []float64{0.30, 0.40, 0.30}

func setupControl(seed int64) (*servingRunner, error) {
	rng := rand.New(rand.NewSource(seed))
	store := &traceStore{}
	capKey := genKey{app: capApp, iterations: controlIters}
	rebKey := genKey{app: rebalanceApp, iterations: controlIters}
	var reqs []request
	for v := 0; v < 4; v++ {
		frac := 0.6 + 0.05*float64(v) + 1e-4*rng.Float64()
		req := server.PowercapRequest{
			Trace:   server.TraceRef{App: capKey.app, Iterations: capKey.iterations},
			GearSet: server.GearSetSpec{Kind: "uniform"},
			Cap:     frac * 128 * computePeakW,
			Kind:    "peak",
		}
		reqs = append(reqs, request{class: "powercap", path: "/v1/powercap", body: marshal(req), replay: replayPowercap(store, capKey)})
	}
	for v := 0; v < 16; v++ {
		policy := "threshold"
		if v%2 == 1 {
			policy = "predictive"
		}
		req := server.RebalanceRequest{
			Trace:            server.TraceRef{App: rebKey.app, Iterations: rebKey.iterations},
			GearSet:          server.GearSetSpec{Kind: "uniform"},
			Policy:           policy,
			Iterations:       rebalanceRuns,
			ReassignOverhead: 3e-3,
			Drift:            server.DriftSpec{Kind: "ramp", Magnitude: 0.35, Jitter: 0.02, Seed: rng.Int63n(1 << 30)},
		}
		reqs = append(reqs, request{class: "rebalance", path: "/v1/rebalance", body: marshal(req), replay: replayRebalance(store, rebKey)})
	}
	for v := 0; v < 2; v++ {
		req := server.GearOptRequest{
			Traces:    []server.TraceRef{{App: capKey.app, Iterations: capKey.iterations}},
			NGears:    3 + v,
			Grid:      0.25,
			MaxRounds: 2,
		}
		reqs = append(reqs, request{class: "gearopt", path: "/v1/gearopt", body: marshal(req), replay: replayGearopt(store, capKey)})
	}
	f, err := newFleet(1, false)
	if err != nil {
		return nil, err
	}
	r := &servingRunner{f: f, reqs: reqs}
	r.seq = buildSeq(rng, reqs, controlClasses, controlWeights)
	if err := r.fetchReferences(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func replayPowercap(store *traceStore, key genKey) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.PowercapRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		st, err := store.get(key)
		if err != nil {
			return nil, err
		}
		six, _ := dvfs.Uniform(6)
		var res *powercap.Result
		if err := sp.do("powercap.run", 1, func() (err error) {
			res, err = powercap.Run(powercap.Config{
				Trace: st.tr, Platform: dimemas.DefaultPlatform(), Power: power.DefaultConfig(),
				Set: six, Cap: req.Cap, Cache: st.cache,
			})
			return err
		}); err != nil {
			return nil, err
		}
		sp.count("powercap.evals", float64(res.Evaluations))
		var out []byte
		sp.do("server.encode", 1, func() error { out = encodeBody(server.NewPowercapResponse(res)); return nil })
		return out, nil
	}
}

func replayRebalance(store *traceStore, key genKey) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.RebalanceRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		st, err := store.get(key)
		if err != nil {
			return nil, err
		}
		six, _ := dvfs.Uniform(6)
		policy, err := rebalance.ParsePolicy(req.Policy)
		if err != nil {
			return nil, err
		}
		drift := workload.Drift{Kind: workload.DriftRamp, Magnitude: req.Drift.Magnitude, Jitter: req.Drift.Jitter, Seed: req.Drift.Seed}
		var res *rebalance.Result
		if err := sp.do("rebalance.run", 1, func() (err error) {
			res, err = rebalance.Run(rebalance.Config{
				Trace: st.tr, Platform: dimemas.DefaultPlatform(), Power: power.DefaultConfig(),
				Set: six, Policy: policy, Iterations: req.Iterations, ReassignOverhead: req.ReassignOverhead,
				Drift: drift, Predict: predict.Config{}, Cache: st.cache,
			})
			return err
		}); err != nil {
			return nil, err
		}
		sp.count("rebalance.reassignments", float64(res.Reassignments))
		if res.Forecast != nil {
			sp.count("predict.fallbacks", float64(res.Forecast.Fallbacks))
		}
		var out []byte
		sp.do("server.encode", 1, func() error { out = encodeBody(server.NewRebalanceResponse(res)); return nil })
		return out, nil
	}
}

func replayGearopt(store *traceStore, key genKey) func(*spanner) ([]byte, error) {
	return func(sp *spanner) ([]byte, error) {
		var req server.GearOptRequest
		if err := sp.do("server.decode", 1, func() error { return strictDecode(sp.body, &req) }); err != nil {
			return nil, err
		}
		st, err := store.get(key)
		if err != nil {
			return nil, err
		}
		var res *gearopt.Result
		if err := sp.do("gearopt.optimize", 1, func() (err error) {
			res, err = gearopt.Optimize(gearopt.Config{
				Traces: []*trace.Trace{st.tr}, NGears: req.NGears, Grid: req.Grid, MaxRounds: req.MaxRounds,
				Cache: st.cache,
			})
			return err
		}); err != nil {
			return nil, err
		}
		var out []byte
		sp.do("server.encode", 1, func() error { out = encodeBody(server.NewGearOptResponse(res)); return nil })
		return out, nil
	}
}
