package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServerAnalyze measures end-to-end /v1/analyze throughput on a
// warm cache: every iteration pays JSON decode + gear assignment + DVFS
// replay, but shares the memoized baseline replay and generated trace.
func BenchmarkServerAnalyze(b *testing.B) {
	s := New(Config{MaxInFlight: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(AnalyzeRequest{
		Trace:   TraceRef{App: "IS-32", Iterations: 3, Quick: true},
		GearSet: GearSetSpec{Kind: "uniform"},
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm the trace and replay caches outside the timed region.
	if err := post(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerAnalyzeBatch measures end-to-end /v1/analyze/batch
// throughput: sixteen gear assignments retimed off one shared timing
// skeleton per request. Compare the per-item cost against
// BenchmarkServerAnalyze to see what batching saves.
func BenchmarkServerAnalyzeBatch(b *testing.B) {
	s := New(Config{MaxInFlight: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := make([]AnalyzeBatchItem, 16)
	for i := range items {
		n := 2 + i%7
		kind := "uniform"
		if i%2 == 1 {
			kind = "exponential"
		}
		items[i] = AnalyzeBatchItem{Algorithm: "MAX", GearSet: GearSetSpec{Kind: kind, N: n}}
	}
	body, err := json.Marshal(AnalyzeBatchRequest{
		Trace: TraceRef{App: "IS-32", Iterations: 3, Quick: true},
		Items: items,
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerDecodeInline measures decode on the /v1/replay body of an
// inline 3-iteration WRF-128 trace (about 70 KB, nearly all trace text),
// declared with its length as HTTP clients send it.
func BenchmarkServerDecodeInline(b *testing.B) {
	body, _ := inlineBodies(b, inlineText(b, 1), 128)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req ReplayRequest
		r := httptest.NewRequest("POST", "/v1/replay", bytes.NewReader(body))
		if err := decode(r, &req, maxBody); err != nil {
			b.Fatal(err)
		}
	}
}
