package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/gearopt"
	"repro/internal/power"
	"repro/internal/powercap"
	"repro/internal/rebalance"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testSpec is the small, fast workload most tests run against.
var testSpec = TraceRef{App: "IS-32", Iterations: 3, Quick: true}

// betaPtr builds the optional wire form of an explicit beta.
func betaPtr(b float64) *float64 { return &b }

// genTestTrace builds the library-side equivalent of testSpec-style specs.
func genTestTrace(t testing.TB, spec TraceRef) *trace.Trace {
	t.Helper()
	inst, err := workload.FindInstance(spec.App)
	if spec.NProcs > 0 {
		inst, err = workload.InstanceFor(spec.App, spec.NProcs)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = spec.Iterations
	cfg.SkipPECalibration = spec.Quick
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// wire marshals a response struct exactly the way the server does.
func wire(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestReplayByteIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Baseline replay: no explicit frequencies.
	code, got := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	tr := genTestTrace(t, testSpec)
	res, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), dimemas.Options{Beta: timemodel.DefaultBeta, FMax: dvfs.FMax})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewReplayResponse(tr.App, res)); !bytes.Equal(got, want) {
		t.Fatalf("replay response differs from library call\n got: %s\nwant: %s", got, want)
	}

	// Explicit per-rank frequencies.
	freqs := make([]float64, tr.NumRanks())
	for i := range freqs {
		freqs[i] = 1.4
	}
	code, got = postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec, Freqs: freqs, GearSpec: GearSpec{Beta: betaPtr(0.3)}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	res, err = dimemas.Simulate(tr, dimemas.DefaultPlatform(), dimemas.Options{Beta: 0.3, FMax: dvfs.FMax, Freqs: freqs})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewReplayResponse(tr.App, res)); !bytes.Equal(got, want) {
		t.Fatalf("scaled replay response differs from library call\n got: %s\nwant: %s", got, want)
	}
}

func TestAnalyzeByteIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		algo string
		spec GearSetSpec
	}{
		{"MAX", GearSetSpec{Kind: "exponential", N: 6}},
		{"AVG", GearSetSpec{Kind: "uniform", N: 6, Overclock: true}},
		{"MAX", GearSetSpec{Kind: "continuous-limited"}},
	} {
		req := AnalyzeRequest{Trace: testSpec, Algorithm: tc.algo, GearSet: tc.spec}
		code, got := postJSON(t, ts.URL+"/v1/analyze", req)
		if code != http.StatusOK {
			t.Fatalf("%s/%s: status %d: %s", tc.algo, tc.spec.Kind, code, got)
		}

		set, err := tc.spec.set()
		if err != nil {
			t.Fatal(err)
		}
		algo := core.MAX
		if tc.algo == "AVG" {
			algo = core.AVG
		}
		res, err := analysis.Run(analysis.Config{
			Trace:     genTestTrace(t, testSpec),
			Set:       set,
			Algorithm: algo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := wire(t, NewAnalyzeResponse(set.Name(), res)); !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: analyze response differs from library call\n got: %s\nwant: %s", tc.algo, tc.spec.Kind, got, want)
		}
	}
}

func TestGearOptByteIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := GearOptRequest{
		Traces:    []TraceRef{testSpec},
		NGears:    3,
		Grid:      0.25,
		MaxRounds: 2,
	}
	code, got := postJSON(t, ts.URL+"/v1/gearopt", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	res, err := gearopt.Optimize(gearopt.Config{
		Traces:    []*trace.Trace{genTestTrace(t, testSpec)},
		NGears:    3,
		Grid:      0.25,
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewGearOptResponse(res)); !bytes.Equal(got, want) {
		t.Fatalf("gearopt response differs from library call\n got: %s\nwant: %s", got, want)
	}
}

func TestTracegenMatchesLibraryAndRoundTrips(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, got := postJSON(t, ts.URL+"/v1/tracegen", TracegenRequest{Trace: testSpec})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var resp TracegenResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	tr := genTestTrace(t, testSpec)
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if resp.Trace != sb.String() {
		t.Fatal("generated trace text differs from library call")
	}
	if resp.Ranks != tr.NumRanks() || resp.Records != tr.NumRecords() {
		t.Fatalf("metadata %d ranks/%d records, want %d/%d", resp.Ranks, resp.Records, tr.NumRanks(), tr.NumRecords())
	}
	back, err := trace.Read(strings.NewReader(resp.Trace))
	if err != nil {
		t.Fatalf("generated trace does not round-trip: %v", err)
	}
	if back.NumRecords() != tr.NumRecords() {
		t.Fatal("round-tripped trace lost records")
	}
}

func TestInlineTextTraceReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := genTestTrace(t, testSpec)
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	code, got := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: TraceRef{Text: sb.String()}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	// The library-side equivalent of an inline text trace is the re-parsed
	// trace (text serialization rounds durations), exactly what the server
	// replayed.
	parsed, err := trace.Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dimemas.Simulate(parsed, dimemas.DefaultPlatform(), dimemas.Options{Beta: timemodel.DefaultBeta, FMax: dvfs.FMax})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewReplayResponse(parsed.App, res)); !bytes.Equal(got, want) {
		t.Fatal("inline-text replay differs from library call")
	}
}

// TestInlineTracesDoNotPolluteSharedCache: inline text traces get a fresh
// identity per request, so memoizing them in the daemon's bounded LRU
// would only evict warm generated-workload entries.
func TestInlineTracesDoNotPolluteSharedCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr := genTestTrace(t, testSpec)
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	inline := TraceRef{Text: sb.String()}
	freqs := make([]float64, tr.NumRanks())
	for i := range freqs {
		freqs[i] = 1.1
	}
	for _, req := range []any{
		ReplayRequest{Trace: inline},
		ReplayRequest{Trace: inline, Freqs: freqs},
		AnalyzeRequest{Trace: inline, GearSet: GearSetSpec{Kind: "uniform"}},
		AnalyzeBatchRequest{Trace: inline, Items: []AnalyzeBatchItem{
			{GearSet: GearSetSpec{Kind: "uniform"}},
			{GearSet: GearSetSpec{Kind: "exponential"}},
		}},
	} {
		url := ts.URL + "/v1/replay"
		switch req.(type) {
		case AnalyzeRequest:
			url = ts.URL + "/v1/analyze"
		case AnalyzeBatchRequest:
			url = ts.URL + "/v1/analyze/batch"
		}
		if code, body := postJSON(t, url, req); code != http.StatusOK {
			t.Fatalf("%T: status %d: %s", req, code, body)
		}
	}
	if n := s.Cache().Len(); n != 0 {
		t.Errorf("inline requests left %d entries in the shared cache, want 0", n)
	}
}

func TestAppsListsTable3(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, got := getBody(t, ts.URL+"/v1/apps")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if want := wire(t, NewAppsResponse()); !bytes.Equal(got, want) {
		t.Fatalf("apps response differs\n got: %s\nwant: %s", got, want)
	}
	var resp AppsResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Apps) != len(workload.Table3()) {
		t.Fatalf("%d apps, want %d", len(resp.Apps), len(workload.Table3()))
	}
}

func TestSharedCacheAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Same workload, two different gear sets: the baseline replay must be
	// simulated once and hit on every later request.
	for _, kind := range []string{"uniform", "exponential"} {
		code, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Trace: testSpec, GearSet: GearSetSpec{Kind: kind}})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", kind, code, body)
		}
	}
	code, _ := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	if code != http.StatusOK {
		t.Fatalf("replay status %d", code)
	}
	st := s.Cache().Stats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one recording for all requests)", st.Misses)
	}
	if st.Hits < 3 {
		t.Fatalf("cache hits = %d, want ≥ 3", st.Hits)
	}
}

func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 32})
	kinds := []string{"uniform", "exponential", "continuous-limited", "continuous-unlimited"}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	bodies := make([][]byte, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0, 1, 2:
				code, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
					Trace:   testSpec,
					GearSet: GearSetSpec{Kind: kinds[i%len(kinds)]},
				})
				if code != http.StatusOK {
					errc <- fmt.Errorf("analyze %d: status %d: %s", i, code, body)
					return
				}
				bodies[i] = body
			case 3:
				code, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
				if code != http.StatusOK {
					errc <- fmt.Errorf("replay %d: status %d: %s", i, code, body)
					return
				}
				bodies[i] = body
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Identical requests must produce identical bytes even under load.
	for i := 0; i < 16; i += 4 {
		for j := i + 4; j < 16; j += 4 {
			if !bytes.Equal(bodies[i], bodies[j]) {
				t.Fatalf("requests %d and %d (identical inputs) returned different bytes", i, j)
			}
		}
	}
}

func TestCapacityRejection(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	// Occupy the only slot directly, then any simulation request must be
	// rejected with 503 without queueing.
	s.sem <- struct{}{}
	code, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("503 body is not an error envelope: %s", body)
	}
	<-s.sem
	code, _ = postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	if code != http.StatusOK {
		t.Fatalf("after releasing the slot: status %d, want 200", code)
	}
}

func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	code, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"unknown field", "/v1/replay", `{"nope": 1}`},
		{"no trace", "/v1/replay", `{}`},
		{"text and app", "/v1/replay", `{"trace": {"text": "x", "app": "IS-32"}}`},
		{"unknown app", "/v1/replay", `{"trace": {"app": "NOPE-32"}}`},
		{"iterations too large", "/v1/replay", `{"trace": {"app": "IS-32", "iterations": 100000}}`},
		{"nprocs too large", "/v1/replay", `{"trace": {"app": "CG", "nprocs": 100000000}}`},
		{"nprocs x iterations too large", "/v1/replay", `{"trace": {"app": "CG", "nprocs": 2048, "iterations": 500}}`},
		{"freq count mismatch", "/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "freqs": [1.4]}`},
		{"negative beta", "/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "beta": -1}`},
		{"bad algorithm", "/v1/analyze", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "algorithm": "MINMAX"}`},
		{"bad gear kind", "/v1/analyze", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "gear_set": {"kind": "nope"}}`},
		{"custom set needs freqs", "/v1/analyze", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "gear_set": {"kind": "custom"}}`},
		{"gearopt no traces", "/v1/gearopt", `{}`},
		{"tracegen inline text", "/v1/tracegen", `{"trace": {"text": "x"}}`},
		{"malformed json", "/v1/analyze", `{"trace":`},
		{"powercap no cap", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}}`},
		{"powercap negative cap", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": -5}`},
		{"powercap bad kind", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": 100, "kind": "rms"}`},
		{"powercap continuous set", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": 100, "gear_set": {"kind": "continuous-limited"}}`},
		{"powercap moves out of range", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": 100, "max_moves": 99999999}`},
		{"powercap infeasible cap", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": 0.001}`},
		{"powercap beta above one", "/v1/powercap", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": 100, "beta": 2}`},
		{"rebalance iterations out of range", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "iterations": 100000}`},
		{"rebalance bad policy", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "policy": "sometimes"}`},
		{"rebalance bad drift kind", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "drift": {"kind": "tide"}}`},
		{"rebalance bad drift magnitude", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "drift": {"kind": "ramp", "magnitude": 2}}`},
		{"rebalance cap without capped policy", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "cap": 100}`},
		{"rebalance capped without cap", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "policy": "capped"}`},
		{"rebalance capped continuous set", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "policy": "capped", "cap": 100, "gear_set": {"kind": "continuous-limited"}}`},
		{"rebalance bad margin", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "margin": 1}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: body is not an error envelope: %s", tc.name, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _ := getBody(t, ts.URL+"/v1/replay")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/replay: status %d, want 405", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	var hb HealthBody
	if err := json.Unmarshal(body, &hb); err != nil || hb.Status != "ok" {
		t.Fatalf("healthz body: %s", body)
	}

	// Generate some traffic, then check the exposition contains every
	// metric family.
	postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec})
	code, body = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"pwrsimd_uptime_seconds",
		"pwrsimd_in_flight 0",
		// The first replay misses once: its baseline is retimed from the
		// skeleton and stored in the same recording. The second hits it.
		"pwrsimd_cache_hits_total 1",
		"pwrsimd_cache_misses_total 1",
		"pwrsimd_cache_evictions_total 0",
		"pwrsimd_cache_entries 1",
		`pwrsimd_requests_total{route="/v1/replay"} 2`,
		`pwrsimd_request_errors_total{route="/v1/replay"} 0`,
		`pwrsimd_request_seconds_sum{route="/v1/replay"}`,
		`pwrsimd_request_seconds_max{route="/v1/replay"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

func TestCacheEvictionUnderBound(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	specA := TraceRef{App: "IS-32", Iterations: 3, Quick: true}
	specB := TraceRef{App: "CG-32", Iterations: 3, Quick: true}
	for _, spec := range []TraceRef{specA, specB, specA} {
		code, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: spec})
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	st := s.Cache().Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (bounded)", st.Entries)
	}
	if st.Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥ 2", st.Evictions)
	}
}

func TestTraceCacheBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceCacheEntries: 1})
	for _, app := range []string{"IS-32", "CG-32", "MG-32"} {
		code, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: TraceRef{App: app, Iterations: 3, Quick: true}})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", app, code, body)
		}
	}
	if n := s.traces.Stats().Entries; n != 1 {
		t.Fatalf("trace memo holds %d entries, want 1", n)
	}
}

func TestAnalyzeBatchByteIdenticalToLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	items := []AnalyzeBatchItem{
		{Algorithm: "MAX", GearSet: GearSetSpec{Kind: "uniform"}},
		{Algorithm: "MAX", GearSet: GearSetSpec{Kind: "exponential", N: 4}},
		{Algorithm: "AVG", GearSet: GearSetSpec{Kind: "uniform", Overclock: true}},
		{Algorithm: "MAX", GearSet: GearSetSpec{Kind: "continuous-limited"}},
	}
	code, got := postJSON(t, ts.URL+"/v1/analyze/batch", AnalyzeBatchRequest{Trace: testSpec, Items: items, GearSpec: GearSpec{Beta: betaPtr(0.4)}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	// Library-side equivalent: independent analysis runs over the same
	// trace (no shared cache needed for equality — retiming is
	// bit-identical to simulating).
	tr := genTestTrace(t, testSpec)
	want := &AnalyzeBatchResponse{App: tr.App}
	for _, item := range items {
		algo, err := parseAlgorithm(item.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		set, err := item.GearSet.set()
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Run(analysis.Config{
			Trace:     tr,
			Platform:  dimemas.DefaultPlatform(),
			Power:     power.DefaultConfig(),
			Set:       set,
			Algorithm: algo,
			Beta:      betaPtr(0.4),
		})
		if err != nil {
			t.Fatal(err)
		}
		want.Results = append(want.Results, NewAnalyzeResponse(set.Name(), res))
	}
	if wantBytes := wire(t, want); !bytes.Equal(got, wantBytes) {
		t.Fatalf("batch response differs from library calls\n got: %s\nwant: %s", got, wantBytes)
	}
	// The whole batch shares one recording: the skeleton and its baseline.
	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one recording for the whole batch)", st.Misses)
	}
}

func TestAnalyzeBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, body := postJSON(t, ts.URL+"/v1/analyze/batch", AnalyzeBatchRequest{Trace: testSpec}); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", code, body)
	}
	over := AnalyzeBatchRequest{Trace: testSpec, Items: make([]AnalyzeBatchItem, MaxBatchItems+1)}
	for i := range over.Items {
		over.Items[i] = AnalyzeBatchItem{GearSet: GearSetSpec{Kind: "uniform"}}
	}
	if code, body := postJSON(t, ts.URL+"/v1/analyze/batch", over); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d: %s", code, body)
	}
	// Item-level failures do not fail the batch: the bad item leaves a null
	// at its index and an {index, error, stage} entry in the envelope while
	// its neighbor still gets analyzed.
	bad := AnalyzeBatchRequest{Trace: testSpec, Items: []AnalyzeBatchItem{
		{GearSet: GearSetSpec{Kind: "uniform"}},
		{Algorithm: "NOPE", GearSet: GearSetSpec{Kind: "uniform"}},
	}}
	code, body := postJSON(t, ts.URL+"/v1/analyze/batch", bad)
	if code != http.StatusOK {
		t.Fatalf("bad algorithm item: status %d: %s", code, body)
	}
	var resp AnalyzeBatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0] == nil || resp.Results[1] != nil {
		t.Errorf("results = %+v, want [ok, null]", resp.Results)
	}
	if len(resp.Errors) != 1 || resp.Errors[0].Index != 1 ||
		resp.Errors[0].Stage != "validate" || !strings.Contains(resp.Errors[0].Error, "NOPE") {
		t.Errorf("error envelope = %+v, want index 1 / validate / naming NOPE", resp.Errors)
	}
	// Shared-stage failures (an out-of-range β dooms every item) still fail
	// the whole request.
	if code, body := postJSON(t, ts.URL+"/v1/analyze/batch", AnalyzeBatchRequest{
		Trace:    testSpec,
		Items:    []AnalyzeBatchItem{{GearSet: GearSetSpec{Kind: "uniform"}}},
		GearSpec: GearSpec{Beta: betaPtr(1.5)},
	}); code != http.StatusBadRequest {
		t.Errorf("shared bad beta: status %d: %s", code, body)
	}
}

// TestTimeoutReleasesSlotPromptly proves the PR 2 limitation is gone: a
// 504'd simulation request aborts at its next cancellation check (the
// request context is threaded into the replay loops), so its in-flight
// slot frees promptly instead of only when the abandoned replay finishes.
func TestTimeoutReleasesSlotPromptly(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: time.Nanosecond})
	code, _ := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Trace: testSpec, GearSet: GearSetSpec{Kind: "uniform"}})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case s.sem <- struct{}{}:
			<-s.sem
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot not released after the cancelled work aborted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimedOutGenerationNotMemoized proves workload generation is
// cancellable too (the calibration replays poll the request context) and
// that an aborted generation is evicted from the trace memo instead of
// serving the dead request's cancellation to later callers.
func TestTimedOutGenerationNotMemoized(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	// Non-quick spec: generation runs the PE-calibration bisection, the
	// stage that was uncancellable before.
	spec := TraceRef{App: "IS-32", Iterations: 2}
	code, _ := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: spec})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := s.traces.Stats().Entries
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aborted generation still memoized (%d entries)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeoutKeepsSlotUntilWorkFinishes proves a 504'd request's abandoned
// work keeps holding its in-flight slot (so MaxInFlight bounds running
// simulations, not just attached requests), and that the slot is freed once
// the work really completes. It drives endpoint directly with a blockable
// work function to make the ordering deterministic.
func TestTimeoutKeepsSlotUntilWorkFinishes(t *testing.T) {
	s := New(Config{MaxInFlight: 1, RequestTimeout: time.Millisecond})
	started := make(chan struct{})
	release := make(chan struct{})
	h := endpoint(s, "/test", func(context.Context, *struct{}) (*map[string]bool, error) {
		close(started)
		<-release
		return &map[string]bool{"ok": true}, nil
	})
	do := func() int {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/test", strings.NewReader("{}")))
		return rec.Code
	}

	if code := do(); code != http.StatusGatewayTimeout {
		t.Fatalf("first request: status %d, want 504", code)
	}
	<-started
	// The abandoned work still owns the only slot: new requests are shed.
	if code := do(); code != http.StatusServiceUnavailable {
		t.Fatalf("while abandoned work runs: status %d, want 503", code)
	}
	close(release)
	// Once the work finishes, its deferred free returns the slot; poll
	// until it is observable again (released exactly once).
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case s.sem <- struct{}{}:
			<-s.sem
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot never released after the abandoned work finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdownDrainsInFlight proves Shutdown waits for an in-flight
// request and the request still succeeds.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// A non-quick workload generation (PE-calibration bisection replays)
	// keeps this request in flight long enough to observe the drain.
	slow := TraceRef{App: "CG-64", Iterations: 20}
	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(ReplayRequest{Trace: slow})
		resp, err := http.Post(base+"/v1/replay", "application/json", bytes.NewReader(b))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: body, err: err}
	}()

	// Wait until the request is actually in flight (or already finished).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		inFlight := s.reg.inFlight.Value("")
		finished := s.reg.requests.Value("/v1/replay") > 0
		if inFlight > 0 || finished {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", r.code, r.body)
	}
	var resp ReplayResponse
	if err := json.Unmarshal(r.body, &resp); err != nil || resp.Ranks != 64 {
		t.Fatalf("in-flight response truncated by shutdown: %s", r.body)
	}
}

func TestPowercapByteIdenticalToLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := PowercapRequest{
		Trace:   testSpec,
		GearSet: GearSetSpec{Kind: "uniform"},
		Cap:     0.6 * 32 * 9.703125, // 60% of the all-compute peak of 32 ranks
		Kind:    "peak",
	}
	code, got := postJSON(t, ts.URL+"/v1/powercap", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	tr := genTestTrace(t, testSpec)
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := powercap.Run(powercap.Config{
		Trace:    tr,
		Platform: dimemas.DefaultPlatform(),
		Power:    power.DefaultConfig(),
		Set:      six,
		Cap:      req.Cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewPowercapResponse(res)); !bytes.Equal(got, want) {
		t.Fatalf("powercap response differs from library call\n got: %s\nwant: %s", got, want)
	}
	var resp PowercapResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Uniform.PeakPower > req.Cap || resp.Redistributed.PeakPower > req.Cap {
		t.Errorf("scheduled peaks %v / %v exceed the cap %v", resp.Uniform.PeakPower, resp.Redistributed.PeakPower, req.Cap)
	}
	if resp.Redistributed.Time > resp.Uniform.Time {
		t.Errorf("redistribution %v worse than uniform %v", resp.Redistributed.Time, resp.Uniform.Time)
	}
	// A second identical request hits the shared skeleton and baselines.
	misses := s.Cache().Stats().Misses
	if code, _ := postJSON(t, ts.URL+"/v1/powercap", req); code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if st := s.Cache().Stats(); st.Misses != misses {
		t.Errorf("second powercap request added %d cache misses, want 0", st.Misses-misses)
	}
}

func TestRebalanceByteIdenticalToLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := RebalanceRequest{
		Trace:            testSpec,
		GearSet:          GearSetSpec{Kind: "uniform"},
		Policy:           "threshold",
		Iterations:       12,
		ReassignOverhead: 200e-6,
		Drift:            DriftSpec{Kind: "ramp", Magnitude: 0.4, Jitter: 0.02, Seed: 5},
	}
	code, got := postJSON(t, ts.URL+"/v1/rebalance", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	tr := genTestTrace(t, testSpec)
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rebalance.Run(rebalance.Config{
		Trace:            tr,
		Platform:         dimemas.DefaultPlatform(),
		Power:            power.DefaultConfig(),
		Set:              six,
		Policy:           rebalance.PolicyThreshold,
		Iterations:       12,
		ReassignOverhead: 200e-6,
		Drift:            workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.4, Jitter: 0.02, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewRebalanceResponse(res)); !bytes.Equal(got, want) {
		t.Fatalf("rebalance response differs from library call\n got: %s\nwant: %s", got, want)
	}
	var resp RebalanceResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Iterations) != 12 {
		t.Errorf("%d iterations in the series, want 12", len(resp.Iterations))
	}
	if resp.Reassignments < 1 {
		t.Error("drifting run never rebalanced")
	}
	// A second identical request hits the memoized base-iteration skeleton.
	misses := s.Cache().Stats().Misses
	if code, _ := postJSON(t, ts.URL+"/v1/rebalance", req); code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if st := s.Cache().Stats(); st.Misses != misses {
		t.Errorf("second rebalance request added %d cache misses, want 0", st.Misses-misses)
	}
}

// TestRebalanceTimeout: the iteration loop polls the request context, so a
// request whose deadline fired mid-loop 504s instead of running to the end.
func TestRebalanceTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	code, body := postJSON(t, ts.URL+"/v1/rebalance", RebalanceRequest{
		Trace:      testSpec,
		GearSet:    GearSetSpec{Kind: "uniform"},
		Iterations: MaxRebalanceIterations,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
}

// TestExplicitBetaZeroOverTheWire is the serving half of the Beta regression
// test: on every endpoint that takes a β, a JSON body carrying "beta": 0 must
// reach the pipeline as β = 0 (frequency-insensitive compute), not be
// rewritten to the 0.5 default. Each answer must be byte-identical to the
// library call with an explicit zero β, and must differ from the answer to
// the same body without "beta", so no row is vacuous.
func TestExplicitBetaZeroOverTheWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := genTestTrace(t, testSpec)
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	zero := betaPtr(0)
	freqs := make([]float64, tr.NumRanks())
	for i := range freqs {
		freqs[i] = 1.1
	}
	peakCap := 0.6 * 32 * 9.703125 // 60% of the all-compute peak of 32 ranks
	cases := []struct {
		name string
		url  string
		body func(beta *float64) any
		lib  func() (any, error)
	}{
		{"replay", "/v1/replay",
			func(b *float64) any {
				return ReplayRequest{Trace: testSpec, Freqs: freqs, GearSpec: GearSpec{Beta: b}}
			},
			func() (any, error) {
				res, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), dimemas.Options{Beta: 0, FMax: dvfs.FMax, Freqs: freqs})
				if err != nil {
					return nil, err
				}
				return NewReplayResponse(tr.App, res), nil
			}},
		{"analyze", "/v1/analyze",
			func(b *float64) any {
				return AnalyzeRequest{Trace: testSpec, GearSet: GearSetSpec{Kind: "uniform"}, GearSpec: GearSpec{Beta: b}}
			},
			func() (any, error) {
				res, err := analysis.Run(analysis.Config{Trace: tr, Set: six, Algorithm: core.MAX, Beta: zero})
				if err != nil {
					return nil, err
				}
				return NewAnalyzeResponse(six.Name(), res), nil
			}},
		{"analyze batch", "/v1/analyze/batch",
			func(b *float64) any {
				return AnalyzeBatchRequest{Trace: testSpec, Items: []AnalyzeBatchItem{{GearSet: GearSetSpec{Kind: "uniform"}}}, GearSpec: GearSpec{Beta: b}}
			},
			func() (any, error) {
				res, err := analysis.Run(analysis.Config{Trace: tr, Set: six, Algorithm: core.MAX, Beta: zero})
				if err != nil {
					return nil, err
				}
				return &AnalyzeBatchResponse{App: tr.App, Results: []*AnalyzeResponse{NewAnalyzeResponse(six.Name(), res)}}, nil
			}},
		{"gearopt", "/v1/gearopt",
			func(b *float64) any {
				return GearOptRequest{Traces: []TraceRef{testSpec}, NGears: 3, Grid: 0.25, MaxRounds: 2, GearSpec: GearSpec{Beta: b}}
			},
			func() (any, error) {
				res, err := gearopt.Optimize(gearopt.Config{Traces: []*trace.Trace{tr}, NGears: 3, Grid: 0.25, MaxRounds: 2, Beta: zero})
				if err != nil {
					return nil, err
				}
				return NewGearOptResponse(res), nil
			}},
		{"powercap", "/v1/powercap",
			func(b *float64) any {
				return PowercapRequest{Trace: testSpec, GearSet: GearSetSpec{Kind: "uniform"}, Cap: peakCap, GearSpec: GearSpec{Beta: b}}
			},
			func() (any, error) {
				res, err := powercap.Run(powercap.Config{Trace: tr, Set: six, Cap: peakCap, Beta: zero})
				if err != nil {
					return nil, err
				}
				return NewPowercapResponse(res), nil
			}},
		{"rebalance", "/v1/rebalance",
			func(b *float64) any {
				return RebalanceRequest{Trace: testSpec, GearSet: GearSetSpec{Kind: "uniform"}, Policy: "threshold", Iterations: 8,
					Drift: DriftSpec{Kind: "ramp", Magnitude: 0.4, Jitter: 0.02, Seed: 5}, GearSpec: GearSpec{Beta: b}}
			},
			func() (any, error) {
				res, err := rebalance.Run(rebalance.Config{Trace: tr, Set: six, Policy: rebalance.PolicyThreshold, Iterations: 8,
					Drift: workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.4, Jitter: 0.02, Seed: 5}, Beta: zero})
				if err != nil {
					return nil, err
				}
				return NewRebalanceResponse(res), nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, got := postJSON(t, ts.URL+tc.url, tc.body(zero))
			if code != http.StatusOK {
				t.Fatalf("beta=0: status %d: %s", code, got)
			}
			want, err := tc.lib()
			if err != nil {
				t.Fatal(err)
			}
			if wantBytes := wire(t, want); !bytes.Equal(got, wantBytes) {
				t.Fatalf("explicit beta=0 response differs from the β=0 library call\n got: %s\nwant: %s", got, wantBytes)
			}
			code, def := postJSON(t, ts.URL+tc.url, tc.body(nil))
			if code != http.StatusOK {
				t.Fatalf("default beta: status %d: %s", code, def)
			}
			if bytes.Equal(got, def) {
				t.Fatal("test is vacuous: the β=0 and default-β responses coincide")
			}
		})
	}
}
