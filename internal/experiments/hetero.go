package experiments

import (
	"fmt"
	"io"

	"repro/internal/dimemas"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Heterogeneity extension: the paper balances load on a homogeneous
// machine, where the optimal compute distribution is uniform. Once the
// machine model carries per-rank capability (dimemas.Capability) the optimum
// inverts: a *deliberately imbalanced* distribution — each rank loaded in
// proportion to its speed — finishes sooner than the uniform split the
// paper's balancer targets, because the uniform split leaves fast ranks
// idling at the barrier while slow ranks finish. The capability sweep
// measures that gap on the Table 3 workloads. The placement sweep exercises
// the topology layer the same way: on a two-tier machine (fast intra-node,
// slow inter-node links) a locality-oblivious random placement pays the slow
// link for traffic a topology-aware placement keeps inside nodes.

// Sweep parameters: half the ranks run heteroSpeed× the nominal speed (a
// two-generation cluster); the placement scenarios use heteroRanks ranks in
// nodes of heteroPerNode, exchanging 64 KiB rendezvous messages over links
// an order of magnitude apart.
const (
	heteroSpeed   = 1.5
	heteroRanks   = 16
	heteroPerNode = 4
	heteroSeed    = 5
	heteroBytes   = 1 << 16
	heteroIters   = 2
)

// HeteroCapRow compares work distributions for one application on the
// half-fast machine. Times are seconds.
type HeteroCapRow struct {
	App string
	// FlatTime is the homogeneous reference execution.
	FlatTime float64
	// BalancedTime runs the paper's uniform distribution on the
	// heterogeneous machine: slow ranks dominate every iteration.
	BalancedTime float64
	// ProportionalTime re-shares the same total work in proportion to each
	// rank's efficiency (share[r] = n·eff[r]/Σeff) — imbalanced by design.
	ProportionalTime float64
	// Gain is BalancedTime/ProportionalTime (> 1 when imbalancing wins).
	Gain float64
}

// heteroEfficiency builds the half-fast capability vector.
func heteroEfficiency(n int) []float64 {
	eff := make([]float64, n)
	for r := range eff {
		if r < n/2 {
			eff[r] = heteroSpeed
		} else {
			eff[r] = 1
		}
	}
	return eff
}

// HeteroCapabilitySweep measures uniform vs capability-proportional work
// distribution for each application, sharing the suite's replay cache (one
// machine skeleton per app for both distributions).
func (s *Suite) HeteroCapabilitySweep(apps []string) ([]HeteroCapRow, error) {
	opts := dimemas.Options{Beta: s.Beta, FMax: s.Gen.FMax}
	rows := make([]HeteroCapRow, 0, len(apps))
	for _, app := range apps {
		tr, err := s.Trace(app)
		if err != nil {
			return nil, err
		}
		n := tr.NumRanks()
		eff := heteroEfficiency(n)
		m := dimemas.Machine{Base: s.Gen.Platform, Cap: &dimemas.Capability{Efficiency: eff}}

		flat, err := s.replays.Original(tr, s.Gen.Platform, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero %s flat: %w", app, err)
		}
		balanced, err := s.replays.ReplayMachine(tr, m, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero %s balanced: %w", app, err)
		}
		skel, err := s.replays.SkeletonForMachine(tr, m, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero %s skeleton: %w", app, err)
		}
		var sum float64
		for _, e := range eff {
			sum += e
		}
		share := make([]float64, n)
		for r := range share {
			share[r] = float64(n) * eff[r] / sum
		}
		prop, err := skel.RetimeScaled(nil, share, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero %s proportional: %w", app, err)
		}
		rows = append(rows, HeteroCapRow{
			App:              app,
			FlatTime:         flat.Time,
			BalancedTime:     balanced.Time,
			ProportionalTime: prop.Time,
			Gain:             balanced.Time / prop.Time,
		})
	}
	return rows, nil
}

// HeteroCapTable renders the capability sweep.
func HeteroCapTable(rows []HeteroCapRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Extension — capability-aware work distribution (half the ranks %.1f× fast)", heteroSpeed),
		Header: []string{"app", "T flat (s)", "T balanced (s)", "T proportional (s)", "gain"},
		Notes: []string{
			"flat: homogeneous reference machine. balanced: the paper's uniform work split on the heterogeneous machine (slow half dominates).",
			"proportional: the same total work re-shared as share[r] = n·eff[r]/Σeff — imbalanced by design, every rank finishes together.",
			"gain: balanced/proportional execution time; > 1 means deliberate imbalance beats the homogeneous-optimal uniform split.",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App,
			fmt.Sprintf("%.4f", r.FlatTime),
			fmt.Sprintf("%.4f", r.BalancedTime),
			fmt.Sprintf("%.4f", r.ProportionalTime),
			fmt.Sprintf("%.3f", r.Gain),
		})
	}
	return t
}

// HeteroPlacementRow compares placements for one comm-heavy scenario on the
// two-tier machine. Times are seconds.
type HeteroPlacementRow struct {
	Scenario string
	// BlockTime is the locality-friendly contiguous placement;
	// ShuffledTime is the seeded random placement (the locality-oblivious
	// scheduler baseline); OptimizedTime is the local search started from
	// the shuffle.
	BlockTime, ShuffledTime, OptimizedTime float64
	// Swaps and Evaluations describe the search's work.
	Swaps, Evaluations int
}

// heteroPairsTrace builds partner pairs (2k, 2k+1) exchanging
// 2^(npairs−k) rendezvous messages per iteration — the heaviest split pair
// dominates, and every split pair admits a strictly improving swap.
func heteroPairsTrace(n, iters int) *trace.Trace {
	tr := trace.New("pairs", n)
	npairs := n / 2
	tag := 0
	for it := 0; it < iters; it++ {
		for k := 0; k < npairs; k++ {
			a, b := 2*k, 2*k+1
			for m := 0; m < 1<<(npairs-k); m++ {
				tr.Add(a, trace.Send(b, heteroBytes, tag))
				tr.Add(b, trace.Recv(a, heteroBytes, tag))
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

// heteroPipelineTrace builds a serialized sweep: rank r receives from r−1,
// computes, and sends to r+1, so the iteration time is the *sum* of the
// chain's wire costs — an additive landscape where every cross-node edge
// removed strictly improves the makespan.
func heteroPipelineTrace(n, iters int) *trace.Trace {
	tr := trace.New("pipeline", n)
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			if r > 0 {
				tr.Add(r, trace.Recv(r-1, heteroBytes, it))
			}
			tr.Add(r, trace.Compute(0.0005))
			if r < n-1 {
				tr.Add(r, trace.Send(r+1, heteroBytes, it))
			}
			tr.Add(r, trace.IterMark())
		}
	}
	return tr
}

// heteroTwoTierMachine is the suite platform with a fast intra-node and a
// slow inter-node link over the given placement.
func (s *Suite) heteroTwoTierMachine(pl []int) dimemas.Machine {
	return dimemas.Machine{
		Base: s.Gen.Platform,
		Topo: &dimemas.Topology{
			Placement: pl,
			Intra:     dimemas.Link{Latency: 5e-7, Bandwidth: 6e9},
			Inter:     dimemas.Link{Latency: 2e-5, Bandwidth: 1e8},
		},
	}
}

// HeteroPlacementSweep compares block, seeded-random and locally-optimized
// placements on the comm-heavy scenarios.
func (s *Suite) HeteroPlacementSweep() ([]HeteroPlacementRow, error) {
	opts := dimemas.Options{Beta: s.Beta, FMax: s.Gen.FMax}
	scenarios := []struct {
		name string
		tr   *trace.Trace
	}{
		{"pairs", heteroPairsTrace(heteroRanks, heteroIters)},
		{"pipeline", heteroPipelineTrace(heteroRanks, heteroIters)},
	}
	rows := make([]HeteroPlacementRow, 0, len(scenarios))
	for _, sc := range scenarios {
		block, err := dimemas.SimulateMachine(sc.tr, s.heteroTwoTierMachine(dimemas.BlockPlacement(heteroRanks, heteroPerNode)), opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %s block: %w", sc.name, err)
		}
		shuffledPl := placement.ShuffledPlacement(heteroRanks, heteroPerNode, heteroSeed)
		shuffled, err := dimemas.SimulateMachine(sc.tr, s.heteroTwoTierMachine(shuffledPl), opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %s shuffled: %w", sc.name, err)
		}
		res, err := placement.Optimize(placement.Config{
			Trace:   sc.tr,
			Machine: s.heteroTwoTierMachine(shuffledPl),
			Beta:    &s.Beta,
			FMax:    s.Gen.FMax,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %s optimize: %w", sc.name, err)
		}
		rows = append(rows, HeteroPlacementRow{
			Scenario:      sc.name,
			BlockTime:     block.Time,
			ShuffledTime:  shuffled.Time,
			OptimizedTime: res.Time,
			Swaps:         res.Swaps,
			Evaluations:   res.Evaluations,
		})
	}
	return rows, nil
}

// HeteroPlacementTable renders the placement sweep.
func HeteroPlacementTable(rows []HeteroPlacementRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Extension — topology-aware placement (%d ranks, %d per node, slow inter-node link)", heteroRanks, heteroPerNode),
		Header: []string{"scenario", "T block (s)", "T shuffled (s)", "T optimized (s)", "swaps", "evals"},
		Notes: []string{
			"block: contiguous rank→node placement. shuffled: seeded random placement (locality-oblivious scheduler baseline).",
			"optimized: deterministic pairwise-swap local search started from the shuffle, scoring candidates with exact machine replays.",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scenario,
			fmt.Sprintf("%.5f", r.BlockTime),
			fmt.Sprintf("%.5f", r.ShuffledTime),
			fmt.Sprintf("%.5f", r.OptimizedTime),
			fmt.Sprintf("%d", r.Swaps),
			fmt.Sprintf("%d", r.Evaluations),
		})
	}
	return t
}

// HeteroApps returns the applications of the capability sweep: the two
// small instances plus the two large ones the powercap study uses.
func HeteroApps() []string {
	return []string{"BT-MZ-32", "CG-64", "SPECFEM3D-96", "WRF-128"}
}

// HeteroStudy runs both sweeps of the heterogeneity extension.
func (s *Suite) HeteroStudy(w io.Writer) error {
	capRows, err := s.HeteroCapabilitySweep(HeteroApps())
	if err != nil {
		return err
	}
	if err := HeteroCapTable(capRows).Write(w); err != nil {
		return err
	}
	plRows, err := s.HeteroPlacementSweep()
	if err != nil {
		return err
	}
	return HeteroPlacementTable(plRows).Write(w)
}
