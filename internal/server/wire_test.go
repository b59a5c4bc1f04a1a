package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeFixture runs a raw JSON body through the exact decoder the daemon
// uses (strict, unknown fields rejected), into a fresh value of the request
// type.
func decodeFixture(t *testing.T, body string, v any) {
	t.Helper()
	r := httptest.NewRequest("POST", "/", strings.NewReader(body))
	if err := decode(r, v, maxBody); err != nil {
		t.Fatalf("fixture no longer decodes: %v\nbody: %s", err, body)
	}
}

// TestWireFixturesDecodeUnchanged pins the pre-GearSpec wire format: these
// are verbatim request bodies as clients sent them before β and fmax moved
// into the shared embedded GearSpec. The refactor deduplicated declarations
// and validation — it must not have moved a single JSON key. Each fixture
// asserts the decoded struct field-for-field, including the β pointer
// semantics (absent ≠ explicit 0).
func TestWireFixturesDecodeUnchanged(t *testing.T) {
	t.Run("replay", func(t *testing.T) {
		var req ReplayRequest
		decodeFixture(t, `{
			"trace": {"app": "IS-32", "iterations": 3, "quick": true},
			"freqs": [2.3, 1.9],
			"beta": 0.4,
			"fmax": 2.3
		}`, &req)
		want := ReplayRequest{
			Trace:    TraceRef{App: "IS-32", Iterations: 3, Quick: true},
			Freqs:    []float64{2.3, 1.9},
			GearSpec: GearSpec{Beta: betaPtr(0.4), FMax: 2.3},
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
	})

	t.Run("replay beta absent vs explicit zero", func(t *testing.T) {
		var absent, zero ReplayRequest
		decodeFixture(t, `{"trace": {"app": "IS-32"}}`, &absent)
		decodeFixture(t, `{"trace": {"app": "IS-32"}, "beta": 0}`, &zero)
		if absent.Beta != nil {
			t.Errorf("absent beta decoded non-nil: %v", *absent.Beta)
		}
		if zero.Beta == nil || *zero.Beta != 0 {
			t.Errorf("explicit beta 0 lost its pointer: %v", zero.Beta)
		}
	})

	t.Run("analyze", func(t *testing.T) {
		var req AnalyzeRequest
		decodeFixture(t, `{
			"trace": {"app": "BT-MZ-32"},
			"algorithm": "AVG",
			"gear_set": {"kind": "uniform", "n": 4, "overclock": true},
			"beta": 0.3
		}`, &req)
		want := AnalyzeRequest{
			Trace:     TraceRef{App: "BT-MZ-32"},
			Algorithm: "AVG",
			GearSet:   GearSetSpec{Kind: "uniform", N: 4, Overclock: true},
			GearSpec:  GearSpec{Beta: betaPtr(0.3)},
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
	})

	t.Run("analyze/batch", func(t *testing.T) {
		var req AnalyzeBatchRequest
		decodeFixture(t, `{
			"trace": {"app": "IS-32"},
			"items": [
				{"algorithm": "MAX", "gear_set": {"kind": "uniform"}},
				{"gear_set": {"kind": "custom", "freqs": [1.4, 2.3]}}
			],
			"beta": 0.5,
			"fmax": 2.3
		}`, &req)
		want := AnalyzeBatchRequest{
			Trace: TraceRef{App: "IS-32"},
			Items: []AnalyzeBatchItem{
				{Algorithm: "MAX", GearSet: GearSetSpec{Kind: "uniform"}},
				{GearSet: GearSetSpec{Kind: "custom", Freqs: []float64{1.4, 2.3}}},
			},
			GearSpec: GearSpec{Beta: betaPtr(0.5), FMax: 2.3},
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
	})

	t.Run("gearopt", func(t *testing.T) {
		var req GearOptRequest
		decodeFixture(t, `{
			"traces": [{"app": "IS-32"}, {"app": "BT-MZ-32", "nprocs": 32}],
			"ngears": 4,
			"grid": 0.1,
			"max_rounds": 2,
			"beta": 0.5
		}`, &req)
		want := GearOptRequest{
			Traces:    []TraceRef{{App: "IS-32"}, {App: "BT-MZ-32", NProcs: 32}},
			NGears:    4,
			Grid:      0.1,
			MaxRounds: 2,
			GearSpec:  GearSpec{Beta: betaPtr(0.5)},
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
	})

	t.Run("powercap", func(t *testing.T) {
		var req PowercapRequest
		decodeFixture(t, `{
			"trace": {"app": "WRF-128"},
			"gear_set": {"kind": "exponential", "n": 6},
			"cap": 250.5,
			"kind": "average",
			"max_moves": 12,
			"beta": 0.62,
			"fmax": 2.6
		}`, &req)
		want := PowercapRequest{
			Trace:    TraceRef{App: "WRF-128"},
			GearSet:  GearSetSpec{Kind: "exponential", N: 6},
			Cap:      250.5,
			Kind:     "average",
			MaxMoves: 12,
			GearSpec: GearSpec{Beta: betaPtr(0.62), FMax: 2.6},
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
	})

	t.Run("rebalance", func(t *testing.T) {
		var req RebalanceRequest
		decodeFixture(t, `{
			"trace": {"app": "IS-32"},
			"gear_set": {"kind": "uniform"},
			"algorithm": "MAX",
			"policy": "threshold",
			"iterations": 40,
			"threshold": 0.05,
			"hysteresis": 2,
			"drift": {"kind": "ramp", "magnitude": 0.2, "seed": 7},
			"beta": 0.5
		}`, &req)
		want := RebalanceRequest{
			Trace:      TraceRef{App: "IS-32"},
			GearSet:    GearSetSpec{Kind: "uniform"},
			Algorithm:  "MAX",
			Policy:     "threshold",
			Iterations: 40,
			Threshold:  0.05,
			Hysteresis: 2,
			Drift:      DriftSpec{Kind: "ramp", Magnitude: 0.2, Seed: 7},
			GearSpec:   GearSpec{Beta: betaPtr(0.5)},
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
	})
}

// TestWireGearSpecRoundTrip proves the embedded GearSpec serializes flat:
// marshaling a request emits top-level "beta"/"fmax" keys, never a nested
// object — the exact bytes a pre-redesign server would have produced.
func TestWireGearSpecRoundTrip(t *testing.T) {
	b, err := json.Marshal(ReplayRequest{
		Trace:    TraceRef{App: "IS-32"},
		GearSpec: GearSpec{Beta: betaPtr(0.4), FMax: 2.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"trace":{"app":"IS-32"},"beta":0.4,"fmax":2.3}`
	if string(b) != want {
		t.Errorf("marshaled %s, want %s", b, want)
	}
}

// TestWireBatchResponseEnvelope pins the batch response format: an all-good
// batch serializes exactly as it did before the per-item error envelope
// existed (no "errors" key), and a mixed batch carries null result slots
// plus {index, error, stage} entries.
func TestWireBatchResponseEnvelope(t *testing.T) {
	allGood := AnalyzeBatchResponse{App: "IS-32", Results: []*AnalyzeResponse{{App: "IS-32"}}}
	b, err := json.Marshal(allGood)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"errors"`) {
		t.Errorf("all-good batch response leaks an errors key: %s", b)
	}

	mixed := AnalyzeBatchResponse{
		App:     "IS-32",
		Results: []*AnalyzeResponse{nil, {App: "IS-32"}},
		Errors:  []BatchItemError{{Index: 0, Error: "bad gear set", Stage: "validate"}},
	}
	b, err = json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"results":[null,`, `"errors":[{"index":0,"error":"bad gear set","stage":"validate"}]`} {
		if !strings.Contains(string(b), frag) {
			t.Errorf("mixed batch response missing %s: %s", frag, b)
		}
	}
}
