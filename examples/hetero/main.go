// Heterogeneous machines: the paper balances load on a homogeneous
// cluster, where the optimal compute distribution is uniform. This example
// layers the machine model both ways the platform refactor allows —
// per-rank capability and a two-tier node topology — and shows that on
// such machines the optimum moves:
//
//   - with half the ranks 1.5× fast, a *deliberately imbalanced*
//     capability-proportional work share beats the paper's uniform split;
//
//   - with a slow inter-node link, the topology-aware placement search
//     recovers the locality a random scheduler throws away.
//
// Run it with:
//
//	go run ./examples/hetero
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	cfg := repro.DefaultWorkloadConfig()
	cfg.Iterations = 5
	tr, err := repro.GenerateWorkload("WRF-128", cfg)
	if err != nil {
		log.Fatal(err)
	}
	n := tr.NumRanks()
	opts := repro.SimOptions{Beta: repro.DefaultBeta, FMax: repro.FMax}
	cache := repro.NewReplayCache()

	// Part 1 — capability. Half the ranks run 1.5× the nominal speed.
	eff := make([]float64, n)
	for r := range eff {
		eff[r] = 1
		if r < n/2 {
			eff[r] = 1.5
		}
	}
	m := repro.Machine{Base: cfg.Platform, Cap: &repro.Capability{Efficiency: eff}}

	flat, err := cache.Original(tr, cfg.Platform, opts)
	if err != nil {
		log.Fatal(err)
	}
	balanced, err := cache.ReplayMachine(tr, m, opts)
	if err != nil {
		log.Fatal(err)
	}
	// Re-share the same total work in proportion to speed: rank r gets
	// share[r] = n·eff[r]/Σeff, so every rank finishes together.
	var sum float64
	for _, e := range eff {
		sum += e
	}
	share := make([]float64, n)
	for r := range share {
		share[r] = float64(n) * eff[r] / sum
	}
	skel, err := cache.SkeletonForMachine(tr, m, opts)
	if err != nil {
		log.Fatal(err)
	}
	prop, err := skel.RetimeScaled(nil, share, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on a half-fast machine (%d ranks, fast half 1.5×):\n", tr.App, n)
	fmt.Printf("  homogeneous reference        %.4f s\n", flat.Time)
	fmt.Printf("  uniform split (paper)        %.4f s\n", balanced.Time)
	fmt.Printf("  capability-proportional      %.4f s  (%.2f× faster than uniform)\n\n",
		prop.Time, balanced.Time/prop.Time)

	// Part 2 — topology. A serialized pipeline (rank r receives from r−1,
	// computes, sends to r+1) pays every cross-node hop on the critical
	// path, so placement is the whole ballgame.
	const (
		ranks   = 16
		perNode = 4
		bytes   = 1 << 16
	)
	pipe := repro.NewTrace("pipeline", ranks)
	for it := 0; it < 2; it++ {
		for r := 0; r < ranks; r++ {
			if r > 0 {
				pipe.Add(r, repro.RecvRecord(r-1, bytes, it))
			}
			pipe.Add(r, repro.ComputeRecord(0.0005))
			if r < ranks-1 {
				pipe.Add(r, repro.SendRecord(r+1, bytes, it))
			}
			pipe.Add(r, repro.IterMarkRecord())
		}
	}
	twoTier := func(pl []int) repro.Machine {
		return repro.Machine{
			Base: cfg.Platform,
			Topo: &repro.MachineTopology{
				Placement: pl,
				Intra:     repro.Link{Latency: 5e-7, Bandwidth: 6e9},
				Inter:     repro.Link{Latency: 2e-5, Bandwidth: 1e8},
			},
		}
	}
	block, err := repro.SimulateMachine(pipe, twoTier(repro.BlockPlacement(ranks, perNode)), opts)
	if err != nil {
		log.Fatal(err)
	}
	shuffledPl := repro.ShuffledPlacement(ranks, perNode, 5)
	shuffled, err := repro.SimulateMachine(pipe, twoTier(shuffledPl), opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.OptimizePlacement(repro.PlacementConfig{
		Trace:   pipe,
		Machine: twoTier(shuffledPl),
		FMax:    repro.FMax,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline on two-tier topology (%d ranks, %d per node, slow inter-node link):\n", ranks, perNode)
	fmt.Printf("  block placement              %.5f s\n", block.Time)
	fmt.Printf("  random placement             %.5f s\n", shuffled.Time)
	fmt.Printf("  after placement search       %.5f s  (%d swaps, %d replays)\n",
		res.Time, res.Swaps, res.Evaluations)
}
