package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/rebalance"
)

// FuzzRebalanceBody throws arbitrary JSON at /v1/rebalance — the endpoint
// with the richest request surface (policy, forecaster spec, drift model,
// gear set, platform override) — and asserts the daemon's contract for
// every possible body: the answer is either a decodable RebalanceResponse
// or a complete stage-tagged error envelope, the request-ID header is
// always present, and the handler never panics.
func FuzzRebalanceBody(f *testing.F) {
	s, ts := newTestServer(f, Config{RequestTimeout: 5 * time.Second})
	f.Add(`{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "iterations": 5, "policy": "predictive", "predict": {"kind": "linear", "window": 4}, "horizon": 2, "drift": {"kind": "ramp", "magnitude": 0.3, "jitter": 0.02, "seed": 1}}`)
	f.Add(`{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "iterations": 4, "policy": "predictive-capped", "cap": 4000, "gear_set": {"kind": "uniform", "n": 4}, "drift": {"kind": "step", "magnitude": 0.3}}`)
	f.Add(`{"trace": {"app": "IS-32", "iterations": 3, "quick": true}}`)
	f.Add(`{"policy": "predictive", "predict": {"kind": "nope"}}`)
	f.Add(`{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "policy": "threshold", "predict": {"kind": "linear"}}`)
	f.Add(`{"trace": {"app": "IS-32", "iterations": 3, "quick": true}, "policy": "predictive", "horizon": -1}`)
	f.Add(`{"trace":{"app":"IS-32","iterations":3,"quick":true},"policy":"predictive","predict":{"window":288230376151711744}}`)
	f.Add(`{"trace":`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		resp := postRaw(t, ts.URL+"/v1/rebalance", body, nil)
		if resp.Header.Get(RequestIDHeader) == "" {
			t.Error("response missing X-Request-ID")
		}
		if resp.StatusCode == http.StatusOK {
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var rb RebalanceResponse
			if err := json.Unmarshal(raw, &rb); err != nil {
				t.Fatalf("200 body is not a RebalanceResponse: %v\n%s", err, raw)
			}
			if _, err := rebalance.ParsePolicy(rb.Policy); err != nil {
				t.Errorf("200 body carries unknown policy %q", rb.Policy)
			}
			if rb.App == "" || len(rb.Iterations) == 0 {
				t.Errorf("200 body incomplete: app %q, %d iterations", rb.App, len(rb.Iterations))
			}
		} else {
			envelope(t, resp)
		}
		if panics := s.reg.panics.Value(""); panics != 0 {
			t.Fatalf("handler panicked %g times", panics)
		}
	})
}
