package trace_test

// These tests run on a generated WRF-128 trace. workload imports trace, so
// they live in the external test package to avoid an import cycle.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

var wrfTexts sync.Map // iterations → text

// wrf128Text renders the calibrated WRF-128 trace of the given iteration
// count, the shape perfbench's ingest-inline workload posts inline.
func wrf128Text(tb testing.TB, iterations int) string {
	tb.Helper()
	if s, ok := wrfTexts.Load(iterations); ok {
		return s.(string)
	}
	inst, err := workload.FindInstance("WRF-128")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = iterations
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		tb.Fatal(err)
	}
	wrfTexts.Store(iterations, sb.String())
	return sb.String()
}

// TestParseAllocsIndependentOfLength pins the scanner's allocation budget:
// at most 16 allocations for WRF-128, and the same count when the trace has
// twice as many lines, so nothing is allocated per line or per record.
func TestParseAllocsIndependentOfLength(t *testing.T) {
	var counts [2]float64
	for i, iters := range []int{3, 6} {
		text := wrf128Text(t, iters)
		counts[i] = testing.AllocsPerRun(20, func() {
			if _, err := trace.Parse(text); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[0] > 16 {
		t.Errorf("Parse(WRF-128, 3 iterations) = %v allocations, want at most 16", counts[0])
	}
	if counts[1] != counts[0] {
		t.Errorf("Parse allocations grew with the trace: %v at 3 iterations, %v at 6", counts[0], counts[1])
	}
}

// BenchmarkReadWRF128Inline measures the trace front end of an inline
// ingest request: Read of the 3-iteration WRF-128 text.
func BenchmarkReadWRF128Inline(b *testing.B) {
	text := wrf128Text(b, 3)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Read(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
