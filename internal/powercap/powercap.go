// Package powercap schedules per-rank DVFS gears under a cluster power
// budget. The paper down-gears non-critical ranks assuming unbounded power;
// this package solves the inverse scenario studied by Medhat et al. ("Power
// Redistribution for Optimizing Performance in MPI Clusters"): given a fixed
// cluster power cap, pick per-rank gears that minimize execution time
// subject to the cap, with energy as tiebreaker.
//
// Two policies are compared:
//
//   - Uniform downshift: every rank runs the same gear — the highest level
//     that satisfies the cap. This is what a cluster-level governor without
//     application knowledge can do.
//   - Load-aware redistribution: start from the top gear everywhere and take
//     power from slack-rich ranks first (the paper's MAX ordering inverted —
//     the ranks MAX would down-gear for free are the ones whose power is
//     cheapest to confiscate), then run a greedy refinement loop that
//     up-shifts the critical rank when further shedding elsewhere can pay
//     for it, and finally reclaims leftover slack for pure energy savings at
//     unchanged execution time.
//
// Every candidate is scored exactly or certified slower by the slack table.
// The execution time of a scored gear vector is the retimed replay of the
// trace's timing skeleton (dimemas.ReplayCache.SkeletonFor +
// Skeleton.RetimeDelta), bit-identical to a fresh simulation at a fraction
// of the cost, which is what makes a cap sweep run at retime speed rather
// than replay speed. Slack reclamation, whose downshift probes mostly come
// out slower, first asks the head/tail slack table of its entry vector
// (dimemas.Skeleton.Slack), which proves most of them slower without a
// retime; those probes are rejected exactly as a replay would reject them.
//
// Run schedules a trace and reports both policies with their profiles.
// Reschedule is the same scheduler on a skeleton the caller already holds,
// under per-rank load scales: an online controller re-solves a drifted
// iteration with skeleton walks alone, and gets back only the
// redistributed gears.
package powercap

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

// CapKind selects what the budget bounds.
type CapKind int

const (
	// CapPeak bounds the worst-case instantaneous cluster power: the sum of
	// every rank's compute-phase power at its assigned gear. This is the
	// exact profile peak whenever some instant has all ranks computing
	// simultaneously (true at t=0 for the generated workloads, whose
	// iterations open with a computation burst) and a safe upper bound
	// otherwise, so the reported peak of a scheduled run never exceeds the
	// cap.
	CapPeak CapKind = iota
	// CapAverage bounds the time-averaged cluster power of the run:
	// energy / execution time, both measured on the exact retimed replay.
	CapAverage

	// capKindCount counts the variants; maxCapKind is the last valid one.
	// New kinds must be added above capKindCount so the validation range
	// extends automatically instead of silently rejecting them.
	capKindCount
	maxCapKind = capKindCount - 1
)

func (k CapKind) String() string {
	switch k {
	case CapPeak:
		return "peak"
	case CapAverage:
		return "average"
	default:
		return fmt.Sprintf("CapKind(%d)", int(k))
	}
}

// Policy names a scheduling policy in results.
type Policy int

const (
	// PolicyUniform is the uniform-downshift baseline.
	PolicyUniform Policy = iota
	// PolicyRedistribute is the load-aware redistribution scheduler.
	PolicyRedistribute
)

func (p Policy) String() string {
	switch p {
	case PolicyUniform:
		return "uniform"
	case PolicyRedistribute:
		return "redistribute"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes one power-cap scheduling run.
type Config struct {
	// Trace is the application trace Run schedules (Reschedule reads its
	// skeleton argument instead).
	Trace *trace.Trace
	// Platform models the interconnect; zero value means DefaultPlatform.
	Platform dimemas.Platform
	// Machine optionally layers topology and per-rank capability on top of
	// Platform (nil means the flat homogeneous machine). The scheduler then
	// becomes capability-aware: per-rank power draw is multiplied by
	// Capability.PowerScale (in the cap accounting, the energy scores, and
	// the reported profiles), and per-rank frequency ceilings
	// (Capability.FMax) bound which gears each rank may be assigned. A
	// Machine with a zero Base inherits the Platform.
	Machine *dimemas.Machine
	// Power configures the CPU power model; zero value means the paper's
	// baseline. The cap is expressed in this model's units.
	Power power.Config
	// Set is the available DVFS gear set. It must be discrete: the
	// scheduler sheds power one gear step at a time.
	Set *dvfs.Set
	// Cap is the cluster power budget in model units (see Kind).
	Cap float64
	// Kind selects a peak (default) or time-averaged budget.
	Kind CapKind
	// Beta is the memory-boundedness parameter; nil selects the paper's
	// default 0.5 (dimemas.ModelOptions).
	Beta *float64
	// FMax is the nominal top frequency (default dvfs.FMax when zero).
	FMax float64
	// MaxMoves bounds the refinement moves of the redistribution policy
	// (default 4 × ranks).
	MaxMoves int
	// Cache optionally memoizes the baseline replay and the timing
	// skeleton, sharing them with every other pipeline — and across the
	// rows of a cap sweep, which then pays for the skeleton exactly once.
	// Nil builds an uncached skeleton for this run. Reschedule ignores it.
	Cache *dimemas.ReplayCache
	// Ctx optionally bounds the run; it is polled between candidate
	// evaluations and threaded into the replays.
	Ctx context.Context
}

// Schedule is the outcome of one policy: the gear vector plus the exact
// cost of the scheduled run.
type Schedule struct {
	// Policy records which scheduler produced the assignment.
	Policy Policy
	// Gears holds the per-rank operating points.
	Gears []dvfs.Gear
	// Time and Energy are the scheduled run's execution time and CPU
	// energy (exact replay values).
	Time, Energy float64
	// PeakPower and AveragePower are measured on the scheduled run's
	// cluster power profile; AveragePower is Energy/Time.
	PeakPower, AveragePower float64
	// OverCapSeconds is the total time the instantaneous cluster power
	// exceeds the cap: always 0 for a peak-mode schedule, possibly
	// positive under an average-mode cap.
	OverCapSeconds float64
	// NormTime and NormEnergy are Time and Energy relative to the
	// uncapped (all ranks at FMax) execution.
	NormTime, NormEnergy float64
}

// Freqs returns the per-rank frequencies of the schedule.
func (s *Schedule) Freqs() []float64 {
	out := make([]float64, len(s.Gears))
	for i, g := range s.Gears {
		out[i] = g.Freq
	}
	return out
}

// RefStats describes the uncapped reference execution.
type RefStats struct {
	Time, Energy            float64
	PeakPower, AveragePower float64
}

// Result is the outcome of one power-cap scheduling run.
type Result struct {
	// App names the scheduled trace.
	App string
	// Cap and Kind echo the budget.
	Cap  float64
	Kind CapKind
	// Uncapped is the all-ranks-at-FMax reference execution.
	Uncapped RefStats
	// Uniform and Redistributed are the two policies' schedules. The
	// redistribution result never loses to uniform on (time, energy): the
	// greedy falls back to the uniform solution when that one dominates.
	Uniform, Redistributed Schedule
	// Evaluations counts candidate gear vectors scored by exact replay or
	// certified slower by the slack table.
	Evaluations int
}

// Errors.
var (
	// ErrNilTrace reports a missing trace.
	ErrNilTrace = errors.New("powercap: config needs a trace")
	// ErrNilSet reports a missing gear set.
	ErrNilSet = errors.New("powercap: config needs a gear set")
	// ErrContinuousSet reports a continuous gear set (the scheduler sheds
	// power in discrete gear steps).
	ErrContinuousSet = errors.New("powercap: needs a discrete gear set")
	// ErrCapInfeasible reports a cap below what the bottom gear can meet.
	ErrCapInfeasible = errors.New("powercap: cap infeasible")
)

func (c *Config) normalize() error {
	if c.Set == nil {
		return ErrNilSet
	}
	if c.Set.Continuous() {
		return fmt.Errorf("%w, got %s", ErrContinuousSet, c.Set.Name())
	}
	if c.Cap <= 0 || math.IsNaN(c.Cap) || math.IsInf(c.Cap, 0) {
		return fmt.Errorf("powercap: cap must be positive and finite, got %v", c.Cap)
	}
	if c.Kind < CapPeak || c.Kind > maxCapKind {
		return fmt.Errorf("powercap: unknown cap kind %d", int(c.Kind))
	}
	if c.MaxMoves < 0 {
		return fmt.Errorf("powercap: negative max moves %d", c.MaxMoves)
	}
	return nil
}

// scheduler carries one run's state: the frequency-independent inputs, the
// per-gear constants, and the reusable evaluation buffers.
type scheduler struct {
	cfg      *Config
	opts     dimemas.Options // resolved β and FMax, with the run's Ctx
	machine  dimemas.Machine
	rep      replayer
	pm       *power.Model
	gears    []dvfs.Gear     // ascending
	pComp    []float64       // per gear: compute-phase power
	sd       []float64       // per gear: β slowdown factor vs FMax
	pscale   []float64       // per rank: power multiplier (nil: homogeneous)
	maxGi    []int           // per rank: highest assignable gear index (nil: whole set)
	baseComp []float64       // per rank: computation time at FMax (read-only)
	cur      *dimemas.Result // result of the last evaluate call
	freqs    []float64
	usage    []power.Usage
	maxMoves int
	evals    int
	reclaim  reclaimStats
}

// reclaimStats counts how slack reclamation's downshift probes resolved:
// certified slower by the slack table, or retimed and then rejected or
// accepted. Every probe is also one evaluation.
type reclaimStats struct {
	screened, walked, accepted int
}

// Run schedules the trace under the configured power cap with both policies
// and reports their exact costs next to the uncapped reference execution.
// Errors are stage-tagged (internal/stagerr): configuration problems carry
// the validate stage, everything else crosses powercap with the origin
// stage preserved underneath.
func Run(cfg Config) (*Result, error) {
	res, _, err := run(cfg, newSkeletonReplayer)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Powercap, err)
	}
	return res, nil
}

// Reschedule runs Run's scheduler on skel, a timing skeleton recorded for
// cfg's platform, machine, β and FMax, with every rank's computation
// scaled by scale[rank] (nil: none), and returns the redistributed gears
// (the uniform ones where those dominate). On a flat machine they are
// Run's Redistributed.Gears for the skeleton's trace scaled by
// trace.ScaleCompute; on a machine with an Efficiency layer the equivalent
// trace is the one dimemas.BuildSkeletonMachine describes. It builds no
// timeline, profile or Result, and reads neither cfg.Trace nor cfg.Cache.
// Errors are stage-tagged as Run's are.
func Reschedule(cfg Config, skel *dimemas.Skeleton, scale []float64) ([]dvfs.Gear, error) {
	gears, err := reschedule(&cfg, skel, scale)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Powercap, err)
	}
	return gears, nil
}

func reschedule(cfg *Config, skel *dimemas.Skeleton, scale []float64) ([]dvfs.Gear, error) {
	s, err := newScheduler(cfg, skel.NumRanks())
	if err != nil {
		return nil, err
	}
	s.rep = &skeletonReplayer{skel: skel, scale: scale}
	base, err := skel.RetimeScaled(nil, scale, false)
	if err != nil {
		return nil, err
	}
	s.baseComp = base.Compute
	_, red, err := s.schedule()
	if err != nil {
		return nil, err
	}
	return s.gearsOf(red), nil
}

// replayer scores the gear vectors of one run. The production replayer
// retimes the trace's timing skeleton; the tests inject one that replays the
// trace afresh (RunFresh), which must agree bit for bit.
type replayer interface {
	// probe replays one candidate frequency vector; the result stays valid
	// until the next probe.
	probe(freqs []float64) (*dimemas.Result, error)
	// timeline replays one frequency vector with timeline recording.
	timeline(freqs []float64) (*dimemas.Result, error)
	// slack returns the head/tail table of one frequency vector
	// (dimemas.Skeleton.Slack); nil certifies nothing.
	slack(freqs []float64) (*dimemas.SlackTable, error)
}

// skeletonReplayer answers each probe with one full retime pass, unless the
// probe repeats one of the last two vectors scored (the delta memo answers
// those). Every pass runs under the per-rank load scales (nil for Run).
type skeletonReplayer struct {
	skel  *dimemas.Skeleton
	scale []float64
	delta dimemas.DeltaState
}

func newSkeletonReplayer(cfg *Config, machine dimemas.Machine, opts dimemas.Options) (replayer, error) {
	skel, err := cfg.Cache.SkeletonForMachine(cfg.Trace, machine, opts)
	if err != nil {
		return nil, fmt.Errorf("powercap: timing skeleton: %w", err)
	}
	return &skeletonReplayer{skel: skel}, nil
}

func (r *skeletonReplayer) probe(freqs []float64) (*dimemas.Result, error) {
	return r.skel.RetimeDelta(&r.delta, freqs, r.scale)
}

func (r *skeletonReplayer) timeline(freqs []float64) (*dimemas.Result, error) {
	return r.skel.RetimeScaled(freqs, r.scale, true)
}

func (r *skeletonReplayer) slack(freqs []float64) (*dimemas.SlackTable, error) {
	return r.skel.Slack(freqs, r.scale)
}

// run is Run over an injected replayer; it also reports how slack
// reclamation's probes resolved.
func run(cfg Config, newReplayer func(*Config, dimemas.Machine, dimemas.Options) (replayer, error)) (*Result, reclaimStats, error) {
	if cfg.Trace == nil {
		return nil, reclaimStats{}, stagerr.Wrap(stagerr.Validate, ErrNilTrace)
	}
	s, err := newScheduler(&cfg, cfg.Trace.NumRanks())
	if err != nil {
		return nil, reclaimStats{}, err
	}
	if s.rep, err = newReplayer(&cfg, s.machine, s.opts); err != nil {
		return nil, reclaimStats{}, err
	}
	// The timeline baseline doubles as the uncapped reference and the
	// slack-ordering source; through a cache it is shared across every row
	// of a cap sweep.
	tlOpts := s.opts
	tlOpts.RecordTimeline = true
	base, err := cfg.Cache.ReplayMachine(cfg.Trace, s.machine, tlOpts)
	if err != nil {
		return nil, reclaimStats{}, fmt.Errorf("powercap: baseline replay: %w", err)
	}
	s.baseComp = base.Compute

	// Uncapped reference: every rank at the nominal FMax gear.
	nominal := dvfs.GearAt(s.opts.FMax)
	nomGears := make([]dvfs.Gear, len(base.Compute))
	for r := range nomGears {
		nomGears[r] = nominal
	}
	baseEnergy, err := s.energyOf(nomGears, base)
	if err != nil {
		return nil, reclaimStats{}, err
	}
	baseProfile, err := power.BuildProfileScaled(s.pm, base.Timeline, nomGears, s.pscale, base.Time)
	if err != nil {
		return nil, reclaimStats{}, fmt.Errorf("powercap: baseline profile: %w", err)
	}
	ref := RefStats{
		Time:         base.Time,
		Energy:       baseEnergy,
		PeakPower:    baseProfile.Peak(),
		AveragePower: baseEnergy / base.Time,
	}

	uniIdx, redIdx, err := s.schedule()
	if err != nil {
		return nil, reclaimStats{}, err
	}
	uniform, err := s.finish(PolicyUniform, uniIdx, ref)
	if err != nil {
		return nil, reclaimStats{}, err
	}
	redistributed, err := s.finish(PolicyRedistribute, redIdx, ref)
	if err != nil {
		return nil, reclaimStats{}, err
	}
	return &Result{
		App:           cfg.Trace.App,
		Cap:           cfg.Cap,
		Kind:          cfg.Kind,
		Uncapped:      ref,
		Uniform:       *uniform,
		Redistributed: *redistributed,
		Evaluations:   s.evals,
	}, s.reclaim, nil
}

// newScheduler validates cfg and builds the scheduler of an n-rank run:
// model options, power model, resolved machine and the per-gear and
// per-rank tables. The caller sets rep and baseComp.
func newScheduler(cfg *Config, n int) (*scheduler, error) {
	if err := cfg.normalize(); err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	opts, err := dimemas.ModelOptions(cfg.Beta, cfg.FMax)
	if err != nil {
		return nil, err
	}
	opts.Ctx = cfg.Ctx
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}
	machine, err := dimemas.ResolveMachine(cfg.Platform, cfg.Machine, n)
	if err != nil {
		return nil, err
	}

	gears := cfg.Set.Gears()
	s := &scheduler{
		cfg:      cfg,
		opts:     opts,
		machine:  machine,
		pm:       pm,
		gears:    gears,
		pComp:    make([]float64, len(gears)),
		sd:       make([]float64, len(gears)),
		freqs:    make([]float64, n),
		usage:    make([]power.Usage, n),
		maxMoves: cfg.MaxMoves,
	}
	if s.maxMoves == 0 {
		s.maxMoves = 4 * n
	}
	for gi, g := range gears {
		if g.Freq <= 0 || g.Volt <= 0 {
			return nil, fmt.Errorf("powercap: invalid gear %v in set %s", g, cfg.Set.Name())
		}
		s.pComp[gi] = pm.Power(power.Compute, g)
		s.sd[gi] = timemodel.Slowdown(opts.Beta, opts.FMax, g.Freq)
	}
	if cap := machine.Cap; cap != nil {
		if cap.PowerScale != nil {
			s.pscale = make([]float64, n)
			for r := range s.pscale {
				s.pscale[r] = machine.RankPowerScale(r)
			}
		}
		if cap.FMax != nil {
			s.maxGi = make([]int, n)
			for r := range s.maxGi {
				s.maxGi[r] = machine.RankTopGear(r, gears)
			}
		}
	}
	return s, nil
}

// schedule runs both policies over s.baseComp and returns their gear-index
// vectors. The uniform assignment is also a valid redistribution outcome:
// red falls back to it when the greedy lost on (time, energy), so
// redistribution never reports a worse schedule than the baseline policy.
func (s *scheduler) schedule() (uni, red []int, err error) {
	uni, uniTime, uniEnergy, err := s.uniform()
	if err != nil {
		return nil, nil, err
	}
	red, redTime, redEnergy, err := s.redistribute()
	if err != nil {
		return nil, nil, err
	}
	if uniTime < redTime || (uniTime == redTime && uniEnergy < redEnergy) {
		copy(red, uni)
	}
	return uni, red, nil
}

// evaluate scores one gear-index vector exactly: the replay's execution
// time plus the energy of the run at those gears.
func (s *scheduler) evaluate(idx []int) (time, energy float64, err error) {
	if err := s.count(); err != nil {
		return 0, 0, err
	}
	res, err := s.rep.probe(s.freqsOf(idx))
	if err != nil {
		return 0, 0, err
	}
	s.cur = res
	for r, gi := range idx {
		s.usage[r] = power.Usage{
			Gear:        s.gears[gi],
			ComputeTime: res.Compute[r],
			CommTime:    res.Time - res.Compute[r],
			Scale:       s.scaleAt(r),
		}
	}
	e, err := s.pm.Energy(s.usage)
	if err != nil {
		return 0, 0, err
	}
	return res.Time, e, nil
}

// count books one candidate evaluation: it polls the run's context, then
// bumps the evaluation counter.
func (s *scheduler) count() error {
	if ctx := s.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s.evals++
	return nil
}

// freqsOf writes the frequencies of a gear-index vector into the shared
// buffer s.freqs and returns it.
func (s *scheduler) freqsOf(idx []int) []float64 {
	for r, gi := range idx {
		s.freqs[r] = s.gears[gi].Freq
	}
	return s.freqs
}

// gearsOf returns the gears of a gear-index vector in a new slice.
func (s *scheduler) gearsOf(idx []int) []dvfs.Gear {
	gears := make([]dvfs.Gear, len(idx))
	for r, gi := range idx {
		gears[r] = s.gears[gi]
	}
	return gears
}

// energyOf accounts the energy of an already replayed run at explicit gears.
func (s *scheduler) energyOf(gears []dvfs.Gear, res *dimemas.Result) (float64, error) {
	for r := range gears {
		s.usage[r] = power.Usage{
			Gear:        gears[r],
			ComputeTime: res.Compute[r],
			CommTime:    res.Time - res.Compute[r],
			Scale:       s.scaleAt(r),
		}
	}
	return s.pm.Energy(s.usage)
}

// scaleAt returns rank r's power multiplier (1 on homogeneous machines).
func (s *scheduler) scaleAt(r int) float64 {
	if s.pscale == nil {
		return 1
	}
	return s.pscale[r]
}

// topFor returns rank r's highest assignable gear index — the end of the set
// unless the machine's capability layer caps the rank lower.
func (s *scheduler) topFor(r int) int {
	if s.maxGi == nil {
		return len(s.gears) - 1
	}
	return s.maxGi[r]
}

// peakBound is the all-ranks-computing instantaneous cluster power of a
// gear-index vector — the quantity a peak cap constrains. Heterogeneous
// ranks contribute their scaled draw.
func (s *scheduler) peakBound(idx []int) float64 {
	var sum float64
	if s.pscale == nil {
		for _, gi := range idx {
			sum += s.pComp[gi]
		}
		return sum
	}
	for r, gi := range idx {
		sum += s.pComp[gi] * s.pscale[r]
	}
	return sum
}

// measured carries the exact scores an average-mode feasibility check
// already paid for, so callers reuse them instead of replaying the
// identical gear vector twice.
type measured struct {
	time, energy float64
	valid        bool
}

// feasible reports whether a gear-index vector satisfies the cap. Peak caps
// are O(ranks) arithmetic (m stays invalid); average caps cost one exact
// replay whose scores are returned in m.
func (s *scheduler) feasible(idx []int) (ok bool, m measured, err error) {
	if s.cfg.Kind == CapPeak {
		return s.peakBound(idx) <= s.cfg.Cap, measured{}, nil
	}
	t, e, err := s.evaluate(idx)
	if err != nil {
		return false, measured{}, err
	}
	return e/t <= s.cfg.Cap, measured{time: t, energy: e, valid: true}, nil
}

// bestShed picks the rank to take power from next: among ranks above the
// bottom gear (and not the excluded rank), the one whose computation would
// remain shortest after shedding one gear — the slack-richest rank, the
// paper's MAX ordering inverted. Ties break to the lower rank. Returns -1
// when no rank can shed.
func (s *scheduler) bestShed(idx []int, exclude int) int {
	best := -1
	bestAfter := math.Inf(1)
	for r, gi := range idx {
		if r == exclude || gi == 0 {
			continue
		}
		after := s.baseComp[r] * s.sd[gi-1]
		if after < bestAfter {
			bestAfter = after
			best = r
		}
	}
	return best
}

// infeasibleErr reports the cheapest configuration's actual demand next to
// the cap: the all-bottom average power for average caps (the quantity
// feasibility tested), the all-bottom compute power for peak caps.
func (s *scheduler) infeasibleErr() error {
	n := len(s.baseComp)
	if s.cfg.Kind == CapAverage {
		bottom := make([]int, n)
		if t, e, err := s.evaluate(bottom); err == nil {
			return fmt.Errorf("%w: average cap %.6g below the all-bottom-gear average power %.6g (%d ranks at %s)",
				ErrCapInfeasible, s.cfg.Cap, e/t, n, s.gears[0])
		}
	}
	var floor float64
	for r := 0; r < n; r++ {
		floor += s.pComp[0] * s.scaleAt(r)
	}
	return fmt.Errorf("%w: %s cap %.6g below the all-bottom-gear compute power %.6g (%d ranks at %s)",
		ErrCapInfeasible, s.cfg.Kind, s.cfg.Cap, floor, n, s.gears[0])
}

// uniform finds the best single gear level under the cap: lexicographically
// minimal (time, energy), which is the highest feasible level whenever β > 0
// and the lowest-energy one among time-ties (e.g. β = 0). On machines with
// per-rank frequency ceilings the level is clamped to each rank's own top —
// the best a uniform governor can do on such hardware.
func (s *scheduler) uniform() (idx []int, time, energy float64, err error) {
	n := len(s.baseComp)
	idx = make([]int, n)
	trial := make([]int, n)
	found := false
	for gi := len(s.gears) - 1; gi >= 0; gi-- {
		for r := range trial {
			trial[r] = gi
			if top := s.topFor(r); gi > top {
				trial[r] = top
			}
		}
		if s.cfg.Kind == CapPeak && s.peakBound(trial) > s.cfg.Cap {
			continue
		}
		t, e, err := s.evaluate(trial)
		if err != nil {
			return nil, 0, 0, err
		}
		if s.cfg.Kind == CapAverage && e/t > s.cfg.Cap {
			continue
		}
		if !found || t < time || (t == time && e < energy) {
			found = true
			time, energy = t, e
			copy(idx, trial)
		}
	}
	if !found {
		return nil, 0, 0, s.infeasibleErr()
	}
	return idx, time, energy, nil
}

// redistribute runs the three-phase greedy: shed power from slack-rich
// ranks until the cap holds, refine by up-shifting the critical rank when
// further shedding elsewhere pays for it, then reclaim leftover slack for
// energy at unchanged execution time. The returned time/energy are the
// final vector's exact scores.
func (s *scheduler) redistribute() (idx []int, time, energy float64, err error) {
	n := len(s.baseComp)
	idx = make([]int, n)
	for r := range idx {
		idx[r] = s.topFor(r)
	}

	// Phase 1 — shed until feasible, slack-richest first.
	var m measured
	for {
		var ok bool
		ok, m, err = s.feasible(idx)
		if err != nil {
			return nil, 0, 0, err
		}
		if ok {
			break
		}
		r := s.bestShed(idx, -1)
		if r < 0 {
			return nil, 0, 0, s.infeasibleErr()
		}
		idx[r]--
	}

	// Phase 2 — refinement: give the critical rank one gear back, paying
	// with further shedding elsewhere; commit only strict (time, energy)
	// improvements. Invariant maintained throughout phases 1–2: the last
	// evaluate call scored the current idx, so criticalRank can read the
	// retimed compute times from s.cur.
	curTime, curEnergy := m.time, m.energy
	if !m.valid {
		if curTime, curEnergy, err = s.evaluate(idx); err != nil {
			return nil, 0, 0, err
		}
	}
	trial := make([]int, n)
	for moves := 0; moves < s.maxMoves; moves++ {
		crit := s.criticalRank(idx)
		if crit < 0 {
			break
		}
		copy(trial, idx)
		trial[crit]++
		affordable := true
		for {
			var ok bool
			ok, m, err = s.feasible(trial)
			if err != nil {
				return nil, 0, 0, err
			}
			if ok {
				break
			}
			r := s.bestShed(trial, crit)
			if r < 0 {
				affordable = false
				break
			}
			trial[r]--
		}
		if !affordable {
			break
		}
		tTime, tEnergy := m.time, m.energy
		if !m.valid {
			if tTime, tEnergy, err = s.evaluate(trial); err != nil {
				return nil, 0, 0, err
			}
		}
		if tTime < curTime || (tTime == curTime && tEnergy < curEnergy) {
			copy(idx, trial)
			curTime, curEnergy = tTime, tEnergy
			continue
		}
		break
	}

	// Phase 3 — slack reclamation: a downshift strictly reduces the peak
	// bound, and a committed one (equal time, lower energy) also reduces
	// the average power, so committed moves can never break the cap.
	//
	// A probe the phase-entry slack table certifies slower is rejected
	// without a replay (it still counts as an evaluation and polls the
	// context). One table serves the whole phase: curTime never changes
	// here, since a commit needs tTime == curTime, and every committed move
	// is a downshift, so each probe's vector lies at or below the table's
	// on every rank — the condition under which SlackTable.Slower proves
	// tTime > curTime.
	slack, err := s.rep.slack(s.freqsOf(idx))
	if err != nil {
		return nil, 0, 0, err
	}
	for {
		changed := false
		for r := 0; r < n; r++ {
			if idx[r] == 0 {
				continue
			}
			idx[r]--
			if slack.Slower(r, s.gears[idx[r]].Freq) {
				if err := s.count(); err != nil {
					return nil, 0, 0, err
				}
				s.reclaim.screened++
				idx[r]++
				continue
			}
			tTime, tEnergy, err := s.evaluate(idx)
			if err != nil {
				return nil, 0, 0, err
			}
			if tTime == curTime && tEnergy < curEnergy {
				curEnergy = tEnergy
				changed = true
				s.reclaim.accepted++
			} else {
				idx[r]++
				s.reclaim.walked++
			}
		}
		if !changed {
			break
		}
	}
	return idx, curTime, curEnergy, nil
}

// criticalRank returns the rank with the longest retimed computation among
// those not already at their top gear — the set's top, or the rank's own
// capability ceiling on heterogeneous machines — (ties to the lower rank),
// using the compute times of the last evaluate call; -1 when every rank is
// at its top.
func (s *scheduler) criticalRank(idx []int) int {
	best := -1
	bestComp := math.Inf(-1)
	for r, gi := range idx {
		if gi >= s.topFor(r) {
			continue
		}
		if c := s.cur.Compute[r]; c > bestComp {
			bestComp = c
			best = r
		}
	}
	return best
}

// finish replays the chosen assignment once with timeline recording and
// derives the schedule's exact profile-level statistics.
func (s *scheduler) finish(policy Policy, idx []int, ref RefStats) (*Schedule, error) {
	gears := s.gearsOf(idx)
	res, err := s.rep.timeline(s.freqsOf(idx))
	if err != nil {
		return nil, fmt.Errorf("powercap: %s schedule replay: %w", policy, err)
	}
	energy, err := s.energyOf(gears, res)
	if err != nil {
		return nil, err
	}
	profile, err := power.BuildProfileScaled(s.pm, res.Timeline, gears, s.pscale, res.Time)
	if err != nil {
		return nil, fmt.Errorf("powercap: %s schedule profile: %w", policy, err)
	}
	return &Schedule{
		Policy:         policy,
		Gears:          gears,
		Time:           res.Time,
		Energy:         energy,
		PeakPower:      profile.Peak(),
		AveragePower:   energy / res.Time,
		OverCapSeconds: profile.TimeAbove(s.cfg.Cap),
		NormTime:       res.Time / ref.Time,
		NormEnergy:     energy / ref.Energy,
	}, nil
}
