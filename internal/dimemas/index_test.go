package dimemas_test

import (
	"testing"

	"repro/internal/dimemas"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wrf128 generates the calibrated 3-iteration WRF-128 trace, the shape of
// perfbench's ingest-inline requests.
func wrf128(tb testing.TB) *trace.Trace {
	tb.Helper()
	inst, err := workload.FindInstance("WRF-128")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = 3
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestBuildIndexAllocs pins the fused validate+index pass's allocation
// budget on WRF-128: its tables are sized once, not grown per record.
func TestBuildIndexAllocs(t *testing.T) {
	tr := wrf128(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := dimemas.BuildIndex(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("indexing WRF-128 took %v allocations, want at most 64", allocs)
	}
}

// BenchmarkBuildIndexWRF128 measures the one-time validation and channel
// indexing every fresh trace pays on its first replay.
func BenchmarkBuildIndexWRF128(b *testing.B) {
	tr := wrf128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dimemas.BuildIndex(tr); err != nil {
			b.Fatal(err)
		}
	}
}
