package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/stagerr"
)

// knownStages is the set of stage names an envelope may legally carry.
func knownStages() map[string]bool {
	out := make(map[string]bool)
	for _, st := range stagerr.Stages() {
		out[string(st)] = true
	}
	return out
}

// postRaw posts a raw body with optional headers and returns the response.
func postRaw(t testing.TB, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// envelope decodes an error response and checks the invariant every error
// answer must satisfy: non-empty error, a known stage, and a request_id
// that matches the X-Request-ID response header.
func envelope(t testing.TB, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error response is not an envelope: %s", body)
	}
	if eb.Error == "" {
		t.Errorf("envelope has empty error: %s", body)
	}
	if !knownStages()[eb.Stage] {
		t.Errorf("envelope stage %q not in the stagerr taxonomy: %s", eb.Stage, body)
	}
	if eb.RequestID == "" {
		t.Errorf("envelope has empty request_id: %s", body)
	}
	if hdr := resp.Header.Get(RequestIDHeader); hdr != eb.RequestID {
		t.Errorf("request_id %q does not match %s header %q", eb.RequestID, RequestIDHeader, hdr)
	}
	return eb
}

// TestErrorEnvelopeStages proves 4xx answers carry the stage the failure
// originated in: body/trace-text problems report parse, semantic problems
// report validate.
func TestErrorEnvelopeStages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		url   string
		body  string
		stage string
	}{
		{"malformed json body", "/v1/replay", `{"trace":`, "parse"},
		{"unknown body field", "/v1/replay", `{"nope": 1}`, "parse"},
		{"malformed inline trace", "/v1/replay", `{"trace": {"text": "not a trace"}}`, "parse"},
		{"missing trace", "/v1/replay", `{}`, "validate"},
		{"iterations out of range", "/v1/replay", `{"trace": {"app": "IS-32", "iterations": 100000}}`, "validate"},
		{"unknown app", "/v1/replay", `{"trace": {"app": "NOPE-32"}}`, "validate"},
		{"freq count mismatch", "/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "freqs": [1.4]}`, "validate"},
		{"bad algorithm", "/v1/analyze", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "algorithm": "MINMAX"}`, "validate"},
		{"bad gear kind", "/v1/analyze", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "gear_set": {"kind": "nope"}}`, "validate"},
		{"tracegen inline text", "/v1/tracegen", `{"trace": {"text": "x"}}`, "validate"},
		{"tracegen unbuildable count", "/v1/tracegen", `{"trace": {"app": "IS", "nprocs": 2, "iterations": 3}}`, "validate"},
		{"replay unbuildable count", "/v1/replay", `{"trace": {"app": "PEPC", "nprocs": 3, "iterations": 3}}`, "validate"},
		{"gearopt grid below minimum", "/v1/gearopt", `{"traces": [{"app": "IS-32", "iterations": 3, "quick": true}], "grid": 1e-6}`, "validate"},
		{"gearopt negative max_rounds", "/v1/gearopt", `{"traces": [{"app": "IS-32", "iterations": 3, "quick": true}], "max_rounds": -1}`, "validate"},
		{"rebalance window above max", "/v1/rebalance", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "policy": "predictive", "predict": {"window": 288230376151711744}}`, "validate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRaw(t, ts.URL+tc.url, tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if eb := envelope(t, resp); eb.Stage != tc.stage {
				t.Errorf("stage = %q, want %q (error: %s)", eb.Stage, tc.stage, eb.Error)
			}
		})
	}
}

// TestHugeInlineRankCountRejected is the regression test for an inline
// trace whose header demands unbounded memory: a 50M-rank header used to
// cost over a gigabyte of allocation before any check ran. It must now
// answer 400 at the parse stage, fast.
func TestHugeInlineRankCountRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	resp := postRaw(t, ts.URL+"/v1/replay", `{"trace": {"text": "#PWRTRACE v1 app=x ranks=50000000\nc 0 1\n"}}`, nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if eb := envelope(t, resp); eb.Stage != string(stagerr.Parse) {
		t.Errorf("stage = %q, want parse (error: %s)", eb.Stage, eb.Error)
	}
	if elapsed > time.Second {
		t.Errorf("rejection took %v, want under a second", elapsed)
	}
}

// TestUnmatchedInlineTraceEnvelopeIsDeterministic is the regression test
// for a validation message chosen by map order: an inline trace with two
// unmatched channels must get the same 400 body every time, naming the
// first channel in order of appearance.
func TestUnmatchedInlineTraceEnvelopeIsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"trace": {"text": "#PWRTRACE v1 app=x ranks=4\ns 0 1 8 0\ns 2 3 8 0\n"}}`
	hdr := map[string]string{RequestIDHeader: "unmatched-1"}
	var bodies [2][]byte
	for i := range bodies {
		resp := postRaw(t, ts.URL+"/v1/replay", body, hdr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatalf("same request, different envelopes:\n%s\n%s", bodies[0], bodies[1])
	}
	var eb ErrorBody
	if err := json.Unmarshal(bodies[0], &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Stage != string(stagerr.Validate) || !strings.Contains(eb.Error, "channel 0→1 tag 0") {
		t.Fatalf("envelope = %+v, want a validate-stage error naming channel 0→1", eb)
	}
}

// TestTimeoutEnvelope proves the 504 answer is a full envelope.
func TestTimeoutEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp := postRaw(t, ts.URL+"/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}}`, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if eb := envelope(t, resp); eb.Stage != string(stagerr.Serve) {
		t.Errorf("504 stage = %q, want serve", eb.Stage)
	}
}

// TestShedEnvelope proves the 503 capacity-shed answer is a full envelope.
func TestShedEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp := postRaw(t, ts.URL+"/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if eb := envelope(t, resp); eb.Stage != string(stagerr.Serve) {
		t.Errorf("503 stage = %q, want serve", eb.Stage)
	}
}

// TestRequestIDEchoAndSanitize pins the inbound-ID contract: a clean token
// is echoed verbatim (headers and envelope); a hostile one is replaced with
// a server-generated ID.
func TestRequestIDEchoAndSanitize(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postRaw(t, ts.URL+"/v1/replay", `{}`, map[string]string{RequestIDHeader: "caller-42"})
	if resp.Header.Get(RequestIDHeader) != "caller-42" {
		t.Errorf("clean inbound ID not echoed: %q", resp.Header.Get(RequestIDHeader))
	}
	if eb := envelope(t, resp); eb.RequestID != "caller-42" {
		t.Errorf("envelope request_id = %q, want caller-42", eb.RequestID)
	}

	for name, bad := range map[string]string{
		"spaces":      "two words",
		"punctuation": "id;DROP TABLE",
		"too long":    strings.Repeat("x", 200),
	} {
		resp := postRaw(t, ts.URL+"/v1/replay", `{}`, map[string]string{RequestIDHeader: bad})
		got := resp.Header.Get(RequestIDHeader)
		if got == "" || got == bad {
			t.Errorf("%s: hostile inbound ID not replaced (got %q)", name, got)
		}
		envelope(t, resp)
	}

	// Success responses carry the header too.
	resp = postRaw(t, ts.URL+"/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}}`, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Error("success response missing X-Request-ID")
	}
}

// TestPanicRecovery proves a panicking handler answers a clean 500 envelope,
// bumps the panic counter, and leaves the daemon serving.
func TestPanicRecovery(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	s := New(Config{})
	h := s.withLifecycle(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/replay", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("panic response is not an envelope: %s", rec.Body.Bytes())
	}
	if eb.Stage != string(stagerr.Serve) || eb.RequestID == "" || eb.Error == "" {
		t.Fatalf("panic envelope incomplete: %+v", eb)
	}

	// A panic after the handler wrote must not attempt a second response.
	rec = httptest.NewRecorder()
	h2 := s.withLifecycle(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		panic("late boom")
	}))
	h2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/replay", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("late-panic status rewritten to %d", rec.Code)
	}

	if panics := s.reg.panics.Value(""); panics != 2 {
		t.Fatalf("panic counter = %g, want 2", panics)
	}
}

// TestPipelinePanicRecovery proves a panic in pipeline work — which runs off
// the handler goroutine, out of withLifecycle's reach — is contained too: the
// request answers the same 500 envelope a handler panic gets, the panic
// counter moves, and the work's in-flight slot is free again.
func TestPipelinePanicRecovery(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	s := New(Config{MaxInFlight: 1})
	h := s.withLifecycle(endpoint(s, "/test", func(context.Context, *struct{}) (*struct{}, error) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/test", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("panic response is not an envelope: %s", rec.Body.Bytes())
	}
	if eb.Error != "internal error" || eb.Stage != string(stagerr.Serve) || eb.RequestID == "" {
		t.Fatalf("panic envelope = %+v, want internal error / serve / a request ID", eb)
	}
	if panics := s.reg.panics.Value(""); panics != 1 {
		t.Fatalf("panic counter = %g, want 1", panics)
	}
	select {
	case s.sem <- struct{}{}:
		<-s.sem
	default:
		t.Fatal("in-flight slot still held after the work panicked")
	}
}

// TestSharedFillPanicIsServerError: a request that shared a memo fill which
// panicked in another request's goroutine answers a 500 cache-stage
// envelope, not a client error.
func TestSharedFillPanicIsServerError(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	h := s.withLifecycle(endpoint(s, "/test", func(context.Context, *struct{}) (*struct{}, error) {
		return nil, stagerr.Wrap(stagerr.Cache, memo.ErrFillPanicked)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/test", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Stage != string(stagerr.Cache) {
		t.Fatalf("envelope = %s, want the cache stage", rec.Body.Bytes())
	}
}

// TestMetricsExposeStageFamilies proves /metrics renders the panic counter
// and zero-filled per-stage error/latency families for the whole taxonomy.
func TestMetricsExposeStageFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One validate-stage error and one successful parse+retime span.
	postRaw(t, ts.URL+"/v1/replay", `{}`, nil).Body.Close()
	postRaw(t, ts.URL+"/v1/replay", `{"trace": {"app": "IS-32", "iterations": 3, "quick": true}}`, nil).Body.Close()

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"pwrsimd_panics_total 0",
		`pwrsimd_stage_errors_total{stage="validate"} 1`,
		`pwrsimd_stage_errors_total{stage="powercap"} 0`,
		`pwrsimd_stage_seconds_count{stage="parse"}`,
		`pwrsimd_stage_seconds_sum{stage="retime"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	for _, st := range stagerr.Stages() {
		if !strings.Contains(text, `pwrsimd_stage_errors_total{stage="`+string(st)+`"}`) {
			t.Errorf("stage %q not zero-filled in exposition", st)
		}
	}
}
