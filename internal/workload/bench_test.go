package workload

import "testing"

var generated int

// BenchmarkGenerate generates all twelve Table 3 instances at DefaultConfig,
// PE calibration included: the trace-generation layer of every experiment
// suite and of the daemon's generated-workload memo.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	insts := Table3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			tr, err := Generate(inst, cfg)
			if err != nil {
				b.Fatal(err)
			}
			generated += tr.NumRecords()
		}
	}
}
