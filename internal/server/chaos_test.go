package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/faults"
	"repro/internal/memo"
	"repro/internal/timemodel"
)

// chaosInlineTrace is a small, valid inline trace; requests carrying it
// exercise the trace-parse and handler-I/O fault points (inline traces
// bypass the shared cache).
const chaosInlineTrace = `#PWRTRACE v1 app=chaos ranks=2
c 0 0.001
c 1 0.002
s 0 1 1024 7
r 1 0 1024 7
i 0
i 1
c 0 0.002
c 1 0.001
i 0
i 1
`

// chaosBody picks the route and body of one soak request. Faults make any
// of them fail, which is fine — the soak asserts envelope shape and
// lifecycle invariants, not success rates.
func chaosBody(worker, i int) (route string, body any) {
	// Vary the latency override across a small set so the soak keeps
	// creating fresh cache fills (distinct keys: the platform is part of
	// the key, β is not) instead of settling into all-hits after the first
	// round — the cache-fill fault point only fires on fills.
	latency := 7e-6 + 1e-7*float64((worker*101+i)%40)
	platform := &PlatformSpec{Latency: &latency}
	switch i % 6 {
	case 0: // memoized baseline replay → cache-fill point
		return "/v1/replay", ReplayRequest{Trace: testSpec, Platform: platform}
	case 1: // skeleton retiming → skeleton-build + retime points
		freqs := make([]float64, 32)
		for j := range freqs {
			freqs[j] = 1.4 + 0.1*float64(j%6)
		}
		return "/v1/replay", ReplayRequest{Trace: testSpec, Freqs: freqs, Platform: platform}
	case 2: // full analysis → cache-fill + skeleton-build + retime points
		return "/v1/analyze", AnalyzeRequest{Trace: testSpec, Platform: platform}
	case 3: // batched analysis → retime point through the RetimeBatch walk
		return "/v1/analyze/batch", AnalyzeBatchRequest{
			Trace: testSpec,
			Items: []AnalyzeBatchItem{
				{Algorithm: "MAX", GearSet: GearSetSpec{Kind: "uniform"}},
				{Algorithm: "AVG", GearSet: GearSetSpec{Kind: "exponential"}},
			},
			Platform: platform,
		}
	case 4: // power-cap search → retime point through the RetimeDelta path
		return "/v1/powercap", PowercapRequest{
			Trace:    testSpec,
			GearSet:  GearSetSpec{Kind: "uniform"},
			Cap:      0.6 * 32 * 9.703125,
			Platform: platform,
		}
	default: // inline text → trace-parse point (uncached Simulate)
		return "/v1/replay", ReplayRequest{Trace: TraceRef{Text: chaosInlineTrace}}
	}
}

// TestChaosSoak drives the daemon through hundreds of injected faults at
// every fault point under concurrent traffic and proves the request
// lifecycle is crash-proof:
//
//   - every error response (400/500/503/504) is a complete envelope with a
//     non-empty stage and request_id;
//   - every in-flight slot is released once traffic stops;
//   - no injected fault (and no context error) is memoized in the shared
//     replay cache — transient chaos must not poison later requests;
//   - the daemon still answers /healthz and, post-chaos, a simulation
//     request byte-identical to the direct library call.
//
// CI runs this test under -race.
func TestChaosSoak(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 4, RequestTimeout: 30 * time.Second})
	rates := map[faults.Point]uint64{
		faults.CacheFill:     3,
		faults.SkeletonBuild: 3,
		faults.Retime:        4,
		faults.TraceParse:    3,
		faults.HandlerIO:     6,
	}
	reg := faults.NewRegistry(20090525, rates)
	faults.Enable(reg)
	t.Cleanup(faults.Disable)

	const workers = 8
	var (
		mu       sync.Mutex
		failures []string
		statuses = map[int]int{}
	)
	report := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 20 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	stages := knownStages()
	doRound := func(worker, rounds int) {
		client := ts.Client()
		for i := 0; i < rounds; i++ {
			route, body := chaosBody(worker, i)
			b, err := json.Marshal(body)
			if err != nil {
				t.Error(err)
				return
			}
			req, err := http.NewRequest("POST", ts.URL+route, bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(RequestIDHeader, fmt.Sprintf("soak-%d-%d", worker, i))
			resp, err := client.Do(req)
			if err != nil {
				report("%s: transport error: %v", route, err)
				continue
			}
			respBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				report("%s: reading body: %v", route, err)
				continue
			}
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
			if resp.StatusCode < 400 {
				continue
			}
			var eb ErrorBody
			if err := json.Unmarshal(respBody, &eb); err != nil {
				report("%s: %d response is not an envelope: %s", route, resp.StatusCode, respBody)
				continue
			}
			if eb.Error == "" || eb.RequestID == "" || !stages[eb.Stage] {
				report("%s: %d envelope incomplete or unknown stage: %s", route, resp.StatusCode, respBody)
			}
		}
	}

	// Soak in batches until the faults actually injected cross the floor
	// the test demands; the batch count is a runaway guard, not a target.
	const perBatch = 40
	for batch := 0; batch < 10 && reg.Fired() < 200; batch++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				doRound(workers*batch+w, perBatch)
			}(w)
		}
		wg.Wait()
	}
	for _, f := range failures {
		t.Error(f)
	}

	// Fault coverage: ≥200 faults across all five points.
	total := uint64(0)
	for p, st := range reg.Stats() {
		t.Logf("fault point %s: %d checks, %d fired", p, st.Checks, st.Fired)
		if st.Fired == 0 {
			t.Errorf("fault point %s never fired (checks: %d)", p, st.Checks)
		}
		total += st.Fired
	}
	if total < 200 {
		t.Errorf("only %d faults injected, want >= 200 (statuses: %v)", total, statuses)
	}

	faults.Disable()

	// Every in-flight slot must be released once traffic stops.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.sem) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d in-flight slots still held after soak", len(s.sem))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No cache poisoning: the shared cache must hold no injected fault and
	// no context error — transient chaos evicts, it never memoizes.
	for _, err := range s.cache.MemoizedErrors() {
		if faults.IsInjected(err) {
			t.Errorf("injected fault memoized in replay cache: %v", err)
		} else if memo.IsCtxErr(err) {
			t.Errorf("context error memoized in replay cache: %v", err)
		}
	}

	// The daemon is still alive.
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("post-chaos healthz: status %d: %s", code, body)
	}

	// And still correct: a post-chaos replay is byte-identical to the
	// direct library call.
	freqs := make([]float64, 32)
	for j := range freqs {
		freqs[j] = 2.0
	}
	code, got := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec, Freqs: freqs})
	if code != http.StatusOK {
		t.Fatalf("post-chaos replay: status %d: %s", code, got)
	}
	tr := genTestTrace(t, testSpec)
	res, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), dimemas.Options{
		Beta: timemodel.DefaultBeta, FMax: dvfs.FMax, Freqs: freqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire(t, NewReplayResponse(tr.App, res)); !bytes.Equal(got, want) {
		t.Fatalf("post-chaos replay differs from library call\n got: %s\nwant: %s", got, want)
	}

	// The soak must have seen both injected-fault failures (500) and
	// successes; all-of-one-kind means the harness tested nothing.
	if statuses[http.StatusOK] == 0 || statuses[http.StatusInternalServerError] == 0 {
		t.Fatalf("soak saw no mix of outcomes: %v", statuses)
	}
}
