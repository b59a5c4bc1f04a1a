package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/gantt"
	"repro/internal/gearopt"
	"repro/internal/jitter"
	"repro/internal/metrics"
	"repro/internal/paraver"
	"repro/internal/phased"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/powercap"
	"repro/internal/predict"
	"repro/internal/rebalance"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported types: the facade keeps one import path for library users
// while the implementation stays in focused internal packages.
type (
	// Trace is a message-passing execution trace (per-rank record lists).
	Trace = trace.Trace
	// Record is one trace event (compute burst, send, recv, collective).
	Record = trace.Record
	// GearSet is a DVFS gear set (continuous range or discrete gears).
	GearSet = dvfs.Set
	// Gear is one frequency/voltage operating point.
	Gear = dvfs.Gear
	// Platform models the interconnect of the replay simulator.
	Platform = dimemas.Platform
	// PowerConfig parameterizes the CPU power model.
	PowerConfig = power.Config
	// AnalysisConfig parameterizes one end-to-end pipeline run.
	AnalysisConfig = analysis.Config
	// AnalysisResult is the outcome of one pipeline run.
	AnalysisResult = analysis.Result
	// Assignment is a per-rank gear decision.
	Assignment = core.Assignment
	// Algorithm selects the balancing policy (MAX or AVG).
	Algorithm = core.Algorithm
	// WorkloadConfig controls synthetic trace generation.
	WorkloadConfig = workload.Config
	// WorkloadInstance identifies one application instance (e.g. CG-64).
	WorkloadInstance = workload.Instance
	// NormalizedResult holds energy/time/EDP relative to the original run.
	NormalizedResult = metrics.Result
	// ExperimentSuite generates, caches and analyzes the paper's workloads.
	ExperimentSuite = experiments.Suite
	// Experiment is one runnable table/figure reproduction.
	Experiment = experiments.Experiment
)

// Balancing algorithms (§3.1 of the paper).
const (
	// MAX balances all processes to the maximum computation time.
	MAX = core.MAX
	// AVG balances to the average, over-clocking the most loaded processes.
	AVG = core.AVG
)

// Nominal platform constants (§3.3).
const (
	// FMax is the manufacturer-specified top frequency in GHz.
	FMax = dvfs.FMax
	// FMin is the lowest frequency of the limited gear sets in GHz.
	FMin = dvfs.FMin
	// DefaultBeta is the paper's baseline memory-boundedness parameter
	// (§3.2) — what the analysis pipeline assumes when β is left unset.
	DefaultBeta = timemodel.DefaultBeta
)

// Analyze runs the full pipeline: replay the original execution, assign
// per-process gears with the configured algorithm/gear set, replay the
// rescaled execution, and account CPU energy.
func Analyze(cfg AnalysisConfig) (*AnalysisResult, error) { return analysis.Run(cfg) }

// AnalysisBatchItem is one gear assignment of a batched analysis: the gear
// set, algorithm and rounding rule that vary per what-if question.
type AnalysisBatchItem = analysis.BatchItem

// AnalyzeBatch answers len(items) what-if questions about cfg.Trace in one
// pass: the baseline replay and the timing skeleton are computed once and
// every DVFS replay happens inside a single TimingSkeleton.RetimeBatch
// walk. Each item's result is bit-identical to what Analyze returns for the
// same parameters. The two returned slices are index-aligned with items —
// exactly one of results[i], errs[i] is non-nil, and one bad item never
// fails its neighbors; the error return is reserved for shared-stage
// failures. cfg.Set/Algorithm/Rounding are ignored; RecordTimelines is
// rejected.
func AnalyzeBatch(cfg AnalysisConfig, items []AnalysisBatchItem) (results []*AnalysisResult, errs []error, err error) {
	return analysis.RunBatch(cfg, items)
}

// Replay engine — the simulator underneath every experiment, exposed for
// users who want raw executions (and for the benchmarks that track it).

// SimOptions configures one replay: β, nominal FMax, optional per-rank
// frequencies, timeline recording and a cancellation context.
type SimOptions = dimemas.Options

// SimResult reports one simulated execution (total time, per-rank
// compute/finish, optional timeline).
type SimResult = dimemas.Result

// Simulate replays a trace on a platform. It is deterministic: the same
// inputs always produce the same result, bit for bit. The replay itself runs
// every rank at FMax; per-rank frequencies and timelines are one retime
// pass over a recording of that replay, the same kernel TimingSkeleton
// runs.
func Simulate(t *Trace, p Platform, opts SimOptions) (*SimResult, error) {
	return dimemas.Simulate(t, p, opts)
}

// TimingSkeleton is the frequency-independent timing skeleton of one
// (trace, platform, FMax) combination, retimed at one β: the replayed
// communication structure recorded once, so that any β and any per-rank
// gear assignment can be re-timed with a single O(events) forward pass
// (ReplayCache.SkeletonFor at another β shares the recording). Retime
// results are bit-identical to Simulate at a fraction of the cost — it is
// what powers sweeps, gear searches and the batched serving endpoint. Beyond
// Retime/RetimeScaled it offers two more entry points, both still
// bit-identical: RetimeDelta(state, freqs, scale) answers a repeat of either
// of the last two distinct vectors retimed on the same DeltaState from a
// memo and runs the same full pass otherwise (the optimizers' hot path), and
// RetimeBatch(freqSets) scores N gear vectors in one struct-of-arrays walk
// over the schedule (the backend of the /v1/analyze/batch endpoint).
type TimingSkeleton = dimemas.Skeleton

// BuildTimingSkeleton records the timing skeleton of one trace/platform
// combination. Prefer ReplayCache.SkeletonFor when evaluating many traces —
// it memoizes skeletons alongside baseline replays.
func BuildTimingSkeleton(t *Trace, p Platform, opts SimOptions) (*TimingSkeleton, error) {
	return dimemas.BuildSkeleton(t, p, opts)
}

// DeltaState is TimingSkeleton.RetimeDelta's memo: the last two distinct
// resolved (freqs, scale) vectors and their results. A zero DeltaState is
// ready to use; reuse one state per search loop and per goroutine.
type DeltaState = dimemas.DeltaState

// BatchResult holds every candidate's outcome from one
// TimingSkeleton.RetimeBatch call in candidate-major flat arrays; At(c)
// returns candidate c's view as a SimResult.
type BatchResult = dimemas.BatchResult

// ReplayCache memoizes one recording per (trace, FMax, platform): the
// timing skeleton, shared by every β, and the baseline (all-ranks-at-FMax)
// replays retimed from it on first read, which are the same at every β. Set
// AnalysisConfig.Cache — or the Cache field of the jitter/phased/gear-search
// configs — to share the original execution across many what-if runs of the
// same trace and to turn every DVFS replay into a skeleton retiming. Safe
// for concurrent use.
type ReplayCache = dimemas.ReplayCache

// CacheStats snapshots a ReplayCache's hit/miss/eviction counters; Entries
// counts recordings.
type CacheStats = dimemas.CacheStats

// NewReplayCache returns an empty, unbounded cache of recordings.
func NewReplayCache() *ReplayCache { return dimemas.NewReplayCache() }

// CompareAlgorithms runs MAX and AVG on the same trace with their
// respective gear sets (Figure 10 of the paper).
func CompareAlgorithms(cfg AnalysisConfig, maxSet, avgSet *GearSet) (*AnalysisResult, *AnalysisResult, error) {
	return analysis.Compare(cfg, maxSet, avgSet)
}

// Balancer computes per-rank gear assignments from computation times; use
// it directly when you already have per-process profiles and do not need
// the replay pipeline.
type Balancer = core.Balancer

// NewBalancer builds a Balancer over a gear set with the given memory-
// boundedness parameter β.
func NewBalancer(set *GearSet, beta float64) (*Balancer, error) {
	return core.NewBalancer(set, beta)
}

// Gear set constructors (§3.3).

// UniformGearSet returns the evenly distributed discrete set with n gears
// between 0.8 and 2.3 GHz (Table 1 shows n = 6).
func UniformGearSet(n int) (*GearSet, error) { return dvfs.Uniform(n) }

// ExponentialGearSet returns the exponentially distributed set with n gears
// (Table 2 shows n = 6).
func ExponentialGearSet(n int) (*GearSet, error) { return dvfs.Exponential(n) }

// ContinuousUnlimited returns the 0–2.3 GHz continuous set.
func ContinuousUnlimited() *GearSet { return dvfs.ContinuousUnlimited() }

// ContinuousLimited returns the 0.8–2.3 GHz continuous set.
func ContinuousLimited() *GearSet { return dvfs.ContinuousLimited() }

// OverclockGear returns the extra (2.6 GHz, 1.6 V) gear the paper adds to
// the discrete six-gear set for the AVG algorithm.
func OverclockGear() Gear { return Gear{Freq: dvfs.OverclockFreq, Volt: dvfs.OverclockVolt} }

// Workload generation.

// DefaultWorkloadConfig returns the generation parameters used for the
// reported experiments (20 iterations, Myrinet-class platform).
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// Applications lists the twelve Table 3 instances.
func Applications() []WorkloadInstance { return workload.Table3() }

// GenerateWorkload builds the calibrated trace of a Table 3 instance by
// name (e.g. "IS-64").
func GenerateWorkload(name string, cfg WorkloadConfig) (*Trace, error) {
	inst, err := workload.FindInstance(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(inst, cfg)
}

// GenerateScaled builds a trace for an application at an arbitrary process
// count, interpolating the Table 3 characteristics (cluster-size studies).
func GenerateScaled(app string, nprocs int, cfg WorkloadConfig) (*Trace, error) {
	inst, err := workload.InstanceFor(app, nprocs)
	if err != nil {
		return nil, err
	}
	return workload.Generate(inst, cfg)
}

// DefaultPlatform returns the Myrinet-class interconnect model.
func DefaultPlatform() Platform { return dimemas.DefaultPlatform() }

// DefaultPowerConfig returns the paper's baseline power model (activity
// ratio 1.5, static fraction 20%).
func DefaultPowerConfig() PowerConfig { return power.DefaultConfig() }

// Experiments.

// NewExperimentSuite builds a suite over a generation config.
func NewExperimentSuite(cfg WorkloadConfig) *ExperimentSuite { return experiments.NewSuite(cfg) }

// AllExperiments lists every table/figure reproduction plus the extensions.
func AllExperiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment (e.g. "fig2").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// Trace construction — describe your own iterative MPI application and run
// it through the pipeline (see examples/custom_app).

// Collective is the set of modeled collective operations.
type Collective = trace.Collective

// Collective kinds.
const (
	CollBarrier   = trace.CollBarrier
	CollBcast     = trace.CollBcast
	CollReduce    = trace.CollReduce
	CollAllReduce = trace.CollAllReduce
	CollAllGather = trace.CollAllGather
	CollAllToAll  = trace.CollAllToAll
)

// NewTrace returns an empty trace for nranks ranks.
func NewTrace(app string, nranks int) *Trace { return trace.New(app, nranks) }

// ComputeRecord returns a computation burst of the given seconds (measured
// at the nominal top frequency).
func ComputeRecord(seconds float64) Record { return trace.Compute(seconds) }

// SendRecord returns a point-to-point send.
func SendRecord(peer int, bytes int64, tag int) Record { return trace.Send(peer, bytes, tag) }

// RecvRecord returns a point-to-point receive.
func RecvRecord(peer int, bytes int64, tag int) Record { return trace.Recv(peer, bytes, tag) }

// CollRecord returns a collective operation; bytes is the per-rank payload.
func CollRecord(c Collective, bytes int64) Record { return trace.Coll(c, bytes) }

// IterMarkRecord returns an iteration boundary marker.
func IterMarkRecord() Record { return trace.IterMark() }

// Trace I/O.

// ReadTrace parses a trace in the text format.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace serializes a trace in the text format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// RenderGantt writes an ASCII Gantt chart of a recorded run (Figure 1).
func RenderGantt(w io.Writer, timelines [][]dimemas.Segment, until float64) error {
	return gantt.Render(w, timelines, until, gantt.Options{})
}

// Paraver interoperability — the trace format the paper's pipeline starts
// from.

// ReadParaver imports the supported subset of a Paraver .prv file.
func ReadParaver(r io.Reader) (*Trace, error) { return paraver.Read(r) }

// WriteParaver exports a trace as a Paraver .prv file for inspection in the
// Paraver GUI.
func WriteParaver(w io.Writer, t *Trace) error { return paraver.Write(w, t) }

// Extensions beyond the paper.

// JitterConfig parameterizes the adaptive Jitter runtime emulation — the
// dynamic system of which the paper's MAX algorithm is the static form.
type JitterConfig = jitter.Config

// JitterResult reports a Jitter emulation.
type JitterResult = jitter.Result

// RunJitter emulates the adaptive runtime over a trace.
func RunJitter(cfg JitterConfig) (*JitterResult, error) { return jitter.Run(cfg) }

// PhasedConfig parameterizes the per-phase MAX extension (one gear per
// process per computation phase — the paper's PEPC future work).
type PhasedConfig = phased.Config

// PhasedResult reports a per-phase analysis.
type PhasedResult = phased.Result

// RunPhased performs the per-phase MAX analysis.
func RunPhased(cfg PhasedConfig) (*PhasedResult, error) { return phased.Run(cfg) }

// Power-cap scheduling — assign per-rank gears under a fixed cluster power
// budget (the inverse of the paper's unbounded-power scenario).

// PowerCapConfig parameterizes one budget-constrained scheduling run.
type PowerCapConfig = powercap.Config

// PowerCapResult reports both policies' schedules next to the uncapped
// reference execution.
type PowerCapResult = powercap.Result

// PowerCapSchedule is one policy's gear assignment with its exact cost.
type PowerCapSchedule = powercap.Schedule

// PowerCapKind selects what the budget bounds (peak or time-averaged watts).
type PowerCapKind = powercap.CapKind

// Power-cap budget kinds.
const (
	// CapPeak bounds the worst-case instantaneous cluster power.
	CapPeak = powercap.CapPeak
	// CapAverage bounds the run's time-averaged cluster power.
	CapAverage = powercap.CapAverage
)

// SchedulePowerCap schedules per-rank gears under a cluster power cap with
// the uniform-downshift baseline and the load-aware redistribution policy,
// scoring every candidate by exact skeleton retiming.
func SchedulePowerCap(cfg PowerCapConfig) (*PowerCapResult, error) { return powercap.Run(cfg) }

// Cluster power profiles — the time-resolved power draw of a replayed run.

// PowerModel computes phase- and gear-dependent CPU power (§3.2).
type PowerModel = power.Model

// PowerPhase distinguishes computation from communication for
// activity-factor purposes.
type PowerPhase = power.Phase

// Power phases.
const (
	// PhaseCompute is a computation burst (high activity factor).
	PhaseCompute = power.Compute
	// PhaseComm is communication or blocked-in-MPI time.
	PhaseComm = power.Comm
)

// NewPowerModel builds and calibrates a power model.
func NewPowerModel(cfg PowerConfig) (*PowerModel, error) { return power.New(cfg) }

// GearAtFrequency builds the gear at frequency f (GHz) under the linear
// voltage model.
func GearAtFrequency(f float64) Gear { return dvfs.GearAt(f) }

// PowerProfile is a replayed run's cluster power draw as a step function
// over time, exposing peak, average and exceedance.
type PowerProfile = power.Profile

// BuildPowerProfile derives the cluster power profile of a replayed run
// from its recorded per-rank timelines and gear assignment.
func BuildPowerProfile(m *PowerModel, timelines [][]dimemas.Segment, gears []Gear, until float64) (*PowerProfile, error) {
	return power.BuildProfile(m, timelines, gears, until)
}

// Online rebalancing — the closed loop the paper's runtime vision implies:
// simulate an application whose per-rank load drifts between iterations,
// observe each executed iteration, and re-solve gears with a pluggable
// policy (see internal/rebalance).

// RebalanceConfig parameterizes one closed-loop rebalancing run.
type RebalanceConfig = rebalance.Config

// RebalanceResult reports the per-iteration series plus convergence metrics.
type RebalanceResult = rebalance.Result

// RebalanceIteration is one online iteration's measured outcome.
type RebalanceIteration = rebalance.IterationStats

// RebalancePolicy selects the rebalancing trigger.
type RebalancePolicy = rebalance.Policy

// Rebalancing policies.
const (
	// RebalanceNever assigns gears once from the first observed iteration.
	RebalanceNever = rebalance.PolicyNever
	// RebalanceEveryK re-solves every Period iterations.
	RebalanceEveryK = rebalance.PolicyEveryK
	// RebalanceThreshold re-solves on persistent balance degradation.
	RebalanceThreshold = rebalance.PolicyThreshold
	// RebalanceCapped is the threshold trigger under a peak power budget.
	RebalanceCapped = rebalance.PolicyCapped
	// RebalancePredictive re-solves against forecast loads when the
	// predicted balance of the next iteration crosses the trigger.
	RebalancePredictive = rebalance.PolicyPredictive
	// RebalancePredictiveCapped is the predictive trigger under a peak
	// power budget: forecast-driven power redistribution.
	RebalancePredictiveCapped = rebalance.PolicyPredictiveCapped
)

// PredictConfig parameterizes the predictive policies' per-rank load
// forecaster (model kind, fit window, EWMA smoothing, fallback guard).
type PredictConfig = predict.Config

// PredictKind selects the forecasting model.
type PredictKind = predict.Kind

// Forecasting models.
const (
	// PredictEWMA forecasts each rank's load as an exponentially weighted
	// moving average — flat, jitter-filtering.
	PredictEWMA = predict.KindEWMA
	// PredictLinear extrapolates a least-squares line over the fit window —
	// trend-aware, the default.
	PredictLinear = predict.KindLinear
)

// DefaultPredictConfig returns the recommended forecaster setup (linear
// model, 8-observation window, skill guard armed).
func DefaultPredictConfig() PredictConfig { return predict.DefaultConfig() }

// RunRebalance simulates the closed loop: every iteration is an exact
// skeleton retiming of the base iteration under that iteration's drifted
// loads, bit-identical to a fresh replay at a fraction of the cost.
func RunRebalance(cfg RebalanceConfig) (*RebalanceResult, error) { return rebalance.Run(cfg) }

// WorkloadDrift describes how per-rank load evolves between iterations of
// an online run (none, ramp, walk or step, plus transient jitter).
type WorkloadDrift = workload.Drift

// Drift kinds.
const (
	// DriftNone keeps loads static (only jitter perturbs iterations).
	DriftNone = workload.DriftNone
	// DriftRamp migrates the imbalance profile progressively across ranks.
	DriftRamp = workload.DriftRamp
	// DriftWalk evolves each rank's load as a clamped random walk.
	DriftWalk = workload.DriftWalk
	// DriftStep shifts the load distribution all at once mid-run.
	DriftStep = workload.DriftStep
)

// GearSearchConfig parameterizes the gear-placement optimizer.
type GearSearchConfig = gearopt.Config

// GearSearchResult reports an optimized gear set.
type GearSearchResult = gearopt.Result

// OptimizeGearSet searches for the n-gear placement minimizing average
// normalized energy over a set of application traces.
func OptimizeGearSet(cfg GearSearchConfig) (*GearSearchResult, error) { return gearopt.Optimize(cfg) }

// Heterogeneous machine model: a Platform optionally layered with a
// node/switch topology and per-rank capability. A Machine with neither
// layer behaves bit-identically to its flat Platform.
type (
	// Machine is a Platform plus optional topology and capability layers.
	Machine = dimemas.Machine
	// MachineTopology places ranks on nodes and nodes under switches, with
	// distinct intra-node, inter-node and remote (cross-switch) links.
	MachineTopology = dimemas.Topology
	// Link is one interconnect tier (latency seconds, bandwidth bytes/s).
	Link = dimemas.Link
	// Capability holds per-rank efficiency, frequency-ceiling and
	// power-scale vectors.
	Capability = dimemas.Capability
)

// FlatMachine wraps a Platform as a Machine with no layers.
func FlatMachine(p Platform) Machine { return dimemas.FlatMachine(p) }

// BlockPlacement assigns ranks to nodes contiguously, perNode at a time.
func BlockPlacement(nranks, perNode int) []int { return dimemas.BlockPlacement(nranks, perNode) }

// SimulateMachine replays a trace on a layered machine: the topology prices
// each message and collective at record time, and each burst is stretched
// by 1/Efficiency before the retime kernel applies its DVFS slowdown. For a
// flat machine it is bit-identical to Simulate on the base platform.
func SimulateMachine(t *Trace, m Machine, opts SimOptions) (*SimResult, error) {
	return dimemas.SimulateMachine(t, m, opts)
}

// PlacementConfig parameterizes the topology-aware placement search.
type PlacementConfig = placement.Config

// PlacementResult reports an optimized rank→node placement.
type PlacementResult = placement.Result

// OptimizePlacement runs a deterministic pairwise-swap local search over
// rank→node placements, scoring candidates with exact machine replays.
func OptimizePlacement(cfg PlacementConfig) (*PlacementResult, error) { return placement.Optimize(cfg) }

// ShuffledPlacement returns a seeded random placement of nranks ranks in
// nodes of perNode — the locality-oblivious baseline for placement studies.
func ShuffledPlacement(nranks, perNode int, seed int64) []int {
	return placement.ShuffledPlacement(nranks, perNode, seed)
}
