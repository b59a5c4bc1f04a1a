// Package repro is a full reproduction of "Power-Aware Load Balancing Of
// Large Scale MPI Applications" (M. Etinski, J. Corbalan, J. Labarta,
// M. Valero, A. Veidenbaum — IPDPS/IPPS 2009).
//
// Load-imbalanced MPI applications leave some processes blocked in MPI while
// the most loaded process computes. The paper assigns one DVFS gear per
// process so all processes finish their computation phases together:
//
//   - MAX (the static form of the prior Jitter system) scales everyone to
//     the maximum computation time; no process exceeds the nominal top
//     frequency, and CPU energy drops by up to ~60% on highly imbalanced
//     applications without extending execution time.
//   - AVG (the paper's new algorithm) balances to the average computation
//     time, over-clocking the most loaded processes by 10–20% (or one extra
//     2.6 GHz gear); it additionally shortens the execution time.
//
// The package exposes the whole simulation methodology: synthetic MPI
// workload generation calibrated to the paper's Table 3, a Dimemas-style
// message-passing replay simulator, the β execution-time model, DVFS gear
// sets with a linear voltage scenario, the CPU power model (dynamic +
// static), and an experiment harness that regenerates every table and
// figure of the evaluation.
//
// Quick start:
//
//	tr, _ := repro.GenerateWorkload("BT-MZ-32", repro.DefaultWorkloadConfig())
//	six, _ := repro.UniformGearSet(6)
//	res, _ := repro.Analyze(repro.AnalysisConfig{Trace: tr, Set: six, Algorithm: repro.MAX})
//	fmt.Println(res.Norm) // energy 36.2% time 100.0% EDP 36.2%
//
// Beyond the paper's one-shot offline assignment, the package simulates the
// online closed loop its runtime vision implies: RunRebalance iterates an
// application whose per-rank load drifts between iterations (WorkloadDrift),
// observes each executed iteration, and re-solves gears with a pluggable
// policy — RebalanceNever (the static baseline), RebalanceEveryK,
// RebalanceThreshold (balance-degradation trigger with hysteresis) or
// RebalanceCapped (threshold trigger under a peak power budget via the
// power-cap scheduler). Every simulated iteration is an exact retiming of
// one recorded timing skeleton (TimingSkeleton.RetimeScaled), bit-identical
// to a fresh replay of the drifted trace at a fraction of the cost:
//
//	res, _ := repro.RunRebalance(repro.RebalanceConfig{
//	    Trace: tr, Set: six, Policy: repro.RebalanceThreshold,
//	    Drift: repro.WorkloadDrift{Kind: repro.DriftRamp, Magnitude: 0.4, Jitter: 0.02},
//	})
//
// Simulate itself is a replay at FMax; a call with per-rank frequencies or
// a timeline records that replay and retimes it once, so DVFS arithmetic
// lives only in the retime kernels. Retiming has two kernels, both
// bit-identical to Simulate:
// TimingSkeleton.Retime re-times one gear vector in a full O(events) pass;
// RetimeScaled folds per-rank load factors in; RetimeDelta runs the same
// pass but answers a repeat of either of the last two distinct vectors
// scored on the same DeltaState from a memo — the hot path of every
// optimizer neighborhood search; and RetimeBatch scores N gear vectors in
// one struct-of-arrays walk over the schedule (examples/batch shows both,
// and /v1/analyze/batch serves RetimeBatch over HTTP):
//
//	sk, _ := repro.BuildTimingSkeleton(tr, repro.DefaultPlatform(), repro.SimOptions{Beta: 0.5, FMax: repro.FMax})
//	var st repro.DeltaState
//	res, _ := sk.RetimeDelta(&st, freqs, nil) // a repeated vector costs no pass
//	batch, _ := sk.RetimeBatch(candidates)    // batch.At(c) is candidate c's SimResult
//
// See the examples directory for runnable programs (examples/rebalance for
// the closed loop, examples/batch for delta/batch retiming), cmd/pwrsim
// for the experiment driver, and docs/ARCHITECTURE.md for the package map
// and dataflow.
package repro
