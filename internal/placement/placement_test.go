package placement

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/trace"
)

// pairTrace builds n (even) ranks in n/2 partner pairs (2k, 2k+1): pair k
// exchanges 2^(n/2−k) large rendezvous messages per iteration, so the
// iteration cost is dominated by the heaviest pair that crosses a node
// boundary. Unlike a symmetric ring (where no single swap changes the
// worst-stage cost), every split pair here admits a strictly improving
// swap, so the local search can walk to the all-pairs-colocated optimum —
// which is exactly the block placement's cost.
func pairTrace(n, iters int) *trace.Trace {
	tr := trace.New("pairs", n)
	const bytes = 1 << 16
	npairs := n / 2
	tag := 0
	for it := 0; it < iters; it++ {
		for k := 0; k < npairs; k++ {
			a, b := 2*k, 2*k+1
			for m := 0; m < 1<<(npairs-k); m++ {
				tr.Add(a, trace.Send(b, bytes, tag))
				tr.Add(b, trace.Recv(a, bytes, tag))
				tag++
			}
		}
		for r := 0; r < n; r++ {
			tr.Add(r, trace.Compute(0.001))
			tr.Add(r, trace.Coll(trace.CollBarrier, 0))
			tr.Add(r, trace.IterMark())
		}
	}
	return tr
}

// twoTierMachine places nranks on nodes of perNode ranks with a fast
// intra-node and a slow inter-node link.
func twoTierMachine(pl []int) dimemas.Machine {
	return dimemas.Machine{
		Base: dimemas.DefaultPlatform(),
		Topo: &dimemas.Topology{
			Placement: pl,
			Intra:     dimemas.Link{Latency: 5e-7, Bandwidth: 6e9},
			Inter:     dimemas.Link{Latency: 2e-5, Bandwidth: 1e8},
		},
	}
}

func simTime(t *testing.T, tr *trace.Trace, m dimemas.Machine) float64 {
	t.Helper()
	res, err := dimemas.SimulateMachine(tr, m, dimemas.Options{Beta: 0.5, FMax: dvfs.FMax})
	if err != nil {
		t.Fatal(err)
	}
	return res.Time
}

func TestOptimizeRecoversLocalityFromShuffle(t *testing.T) {
	const n, perNode = 8, 2
	tr := pairTrace(n, 2)
	shuffled := ShuffledPlacement(n, perNode, 42)
	blockTime := simTime(t, tr, twoTierMachine(dimemas.BlockPlacement(n, perNode)))
	shuffledTime := simTime(t, tr, twoTierMachine(shuffled))
	if shuffledTime <= blockTime {
		t.Fatalf("test premise broken: shuffled %v not worse than block %v", shuffledTime, blockTime)
	}

	res, err := Optimize(Config{Trace: tr, Machine: twoTierMachine(shuffled)})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialTime != shuffledTime {
		t.Errorf("initial time %v != shuffled replay %v", res.InitialTime, shuffledTime)
	}
	if res.Time >= shuffledTime {
		t.Errorf("optimized time %v did not improve on shuffled %v", res.Time, shuffledTime)
	}
	// The optimized placement's reported time is the exact replay of the
	// returned vector.
	if got := simTime(t, tr, twoTierMachine(res.Placement)); got != res.Time {
		t.Errorf("reported time %v != replay of returned placement %v", res.Time, got)
	}
	if res.Swaps == 0 || res.Evaluations == 0 {
		t.Errorf("search did no work: %+v", res)
	}
	// Colocating every partner pair is optimal and is exactly what the block
	// placement does; the local search must land within a whisker of it.
	if res.Time > blockTime*1.001 {
		t.Errorf("optimized time %v far from block optimum %v", res.Time, blockTime)
	}
}

func TestOptimizeLeavesInputMachineUntouched(t *testing.T) {
	const n, perNode = 6, 2
	tr := pairTrace(n, 1)
	shuffled := ShuffledPlacement(n, perNode, 7)
	orig := append([]int(nil), shuffled...)
	m := twoTierMachine(shuffled)
	if _, err := Optimize(Config{Trace: tr, Machine: m}); err != nil {
		t.Fatal(err)
	}
	for r := range orig {
		if m.Topo.Placement[r] != orig[r] {
			t.Fatalf("input placement mutated at rank %d: %v -> %v", r, orig, m.Topo.Placement)
		}
	}
}

func TestOptimizeIsDeterministic(t *testing.T) {
	const n, perNode = 8, 2
	tr := pairTrace(n, 1)
	shuffled := ShuffledPlacement(n, perNode, 3)
	a, err := Optimize(Config{Trace: tr, Machine: twoTierMachine(shuffled)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(Config{Trace: tr, Machine: twoTierMachine(shuffled)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Swaps != b.Swaps || a.Evaluations != b.Evaluations {
		t.Errorf("non-deterministic search: %+v vs %+v", a, b)
	}
	for r := range a.Placement {
		if a.Placement[r] != b.Placement[r] {
			t.Errorf("placements differ at rank %d", r)
		}
	}
}

func TestOptimizeValidation(t *testing.T) {
	tr := pairTrace(4, 1)
	flat := dimemas.FlatMachine(dimemas.DefaultPlatform())
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil trace", Config{Machine: twoTierMachine(dimemas.BlockPlacement(4, 2))}},
		{"no topology", Config{Trace: tr, Machine: flat}},
		{"bad beta", Config{Trace: tr, Machine: twoTierMachine(dimemas.BlockPlacement(4, 2)), Beta: betaPtr(1.5)}},
		{"bad freqs", Config{Trace: tr, Machine: twoTierMachine(dimemas.BlockPlacement(4, 2)), Freqs: []float64{2.3}}},
		{"negative passes", Config{Trace: tr, Machine: twoTierMachine(dimemas.BlockPlacement(4, 2)), MaxPasses: -1}},
		{"short placement", Config{Trace: tr, Machine: twoTierMachine(dimemas.BlockPlacement(3, 2))}},
	}
	for _, tc := range cases {
		if _, err := Optimize(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestOptimizeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Optimize(Config{
		Trace:   pairTrace(8, 1),
		Machine: twoTierMachine(ShuffledPlacement(8, 2, 1)),
		Ctx:     ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

func TestShuffledPlacementDeterministicAndComplete(t *testing.T) {
	a := ShuffledPlacement(16, 4, 99)
	b := ShuffledPlacement(16, 4, 99)
	counts := map[int]int{}
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("same seed produced different placements")
		}
		counts[a[r]]++
	}
	for nd := 0; nd < 4; nd++ {
		if counts[nd] != 4 {
			t.Errorf("node %d holds %d ranks, want 4", nd, counts[nd])
		}
	}
	if c := ShuffledPlacement(16, 4, 100); equalInts(a, c) {
		t.Errorf("different seeds produced identical placements")
	}
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkOptimizePairs tracks the cost of the full local search — every
// candidate swap is an exact machine replay, so this is the perf trajectory
// of both the search loop and the topology-resolved simulator.
func BenchmarkOptimizePairs(b *testing.B) {
	const n, perNode = 8, 2
	tr := pairTrace(n, 2)
	shuffled := ShuffledPlacement(n, perNode, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(Config{Trace: tr, Machine: twoTierMachine(shuffled)}); err != nil {
			b.Fatal(err)
		}
	}
}

// betaPtr returns an explicit β for a config's optional Beta.
func betaPtr(b float64) *float64 { return &b }
