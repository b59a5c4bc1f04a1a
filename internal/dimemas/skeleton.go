package dimemas

// Timing-skeleton retiming: the communication structure of a trace — which
// send matches which receive, which protocol each message uses, which ranks
// join which collective instance, and a valid retirement order for all of it
// — is fixed by the trace and the platform; only event *times* depend on the
// per-rank DVFS frequencies. Control flow in the replay engine never reads a
// clock (blocking and wake-ups are decided purely by matching availability),
// so the replay at FMax retires events in the order a replay at any other
// frequencies would. BuildSkeleton runs that replay once with a recorder,
// which appends each retirement to a flat op list. Retime then re-times any
// gear assignment with a single forward pass over that list — no queues, no
// blocking states, no channel bookkeeping. The scheduler itself never runs
// at other frequencies: Simulate with frequencies or a timeline is a
// recording plus one kernel pass, so this file is the one place DVFS
// slowdowns and timeline segments are computed. The polling engine in
// sim_reference_test.go computes them inline and is the independent check.

import (
	"math"
	"sync"

	"repro/internal/faults"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

type skelKind uint8

const (
	// opCompute is a burst without a β override (trace.Record.Beta < 0):
	// it runs at the skeleton's β, resolved at retime, so one recording
	// serves every β. f1 is the duration at fmax.
	opCompute skelKind = iota
	// opComputeBeta is a burst with an explicit β override, recorded for
	// every override, including one equal to the run's β (Slowdown gets the
	// same arguments either way); f1 is the duration, arg indexes
	// Skeleton.betas.
	opComputeBeta
	// opSendEager posts an eager send: the sender moves on immediately, so
	// its ready time must be snapshotted now; arg is the message's arena
	// slot.
	opSendEager
	// opRecvEager retires a receive of an eager message; arg is the arena
	// slot, f1 the wire transfer time.
	opRecvEager
	// opRecvRend retires one whole rendezvous message. A rendezvous sender
	// is frozen from the moment it posts until the pairing completes, so
	// the receiver-side op can derive the sender's ready time from the
	// sender's (unchanged) clock and write the completion back — post,
	// pairing and sender resume fused into one op. src is the sender, f1
	// the wire transfer time.
	opRecvRend
	// opColl retires one whole collective instance. At the final arrival
	// every rank is parked on this instance (a collective synchronizes all
	// ranks), so every clock IS its arrival time: one op reduces the max,
	// adds the cost (f1) and releases everyone.
	opColl
)

// skelOp is one schedule entry. The stream is a topological order of the
// trace's dependency DAG, so a forward pass always finds its inputs (arena
// slots, peer clocks) already written.
type skelOp struct {
	f1   float64 // duration, wire transfer time or collective cost
	arg  int32   // arena slot or β index
	rank int32
	src  int32 // opRecvRend: sending rank
	kind skelKind
}

// Skeleton is the frequency-independent timing skeleton of one (trace,
// platform, fmax) combination, retimed at one β. The recorded schedule does
// not depend on β — bursts without an override read the skeleton's β at
// retime — so skeletons at different β share one op list (see withBeta).
// It is immutable after construction and safe for concurrent Retime calls.
// Build it with BuildSkeleton or fetch a memoized one from
// ReplayCache.SkeletonFor.
type Skeleton struct {
	nranks   int
	nslots   int // point-to-point arena size (one slot per send)
	beta     float64
	fmax     float64
	overhead float64
	ops      []skelOp
	betas    []float64 // β overrides referenced by opComputeBeta
}

// withBeta returns the skeleton retimed at β: s itself when β has s's bits,
// otherwise a copy that shares s's schedule. Every β-dependent quantity
// (prepare, the batch lanes, Slack) reads the copy's beta, so the view is
// bit-identical to a skeleton recorded at β.
func (s *Skeleton) withBeta(beta float64) *Skeleton {
	if math.Float64bits(beta) == math.Float64bits(s.beta) {
		return s
	}
	v := *s
	v.beta = beta
	return &v
}

// NumRanks returns the rank count of the skeleton's trace.
func (s *Skeleton) NumRanks() int { return s.nranks }

// BuildSkeleton records the trace's retirement schedule by running the
// replay engine once with every rank at FMax and appending an op at every
// retirement point. opts supplies FMax, the β the skeleton retimes at (the
// schedule itself does not depend on it) and an optional Ctx; Freqs and
// RecordTimeline are ignored because the skeleton is independent of both.
// A trace that would deadlock under Simulate fails here with the identical
// diagnostic.
func BuildSkeleton(t *trace.Trace, p Platform, opts Options) (*Skeleton, error) {
	m := Machine{Base: p}
	return buildSkeleton(t, &m, opts)
}

// BuildSkeletonMachine is BuildSkeleton on the layered machine model. The
// topology layer is resolved here, at record time: every recv op's wire
// time comes from the (sender, receiver) pair's link and every collective
// is priced over its slowest spanned link — all gear-independent, so the
// retime tiers need no topology awareness. The capability layer's
// efficiency stretch is baked into the recorded compute durations (duration
// × 1/Efficiency[rank]), so Retime/RetimeDelta/RetimeBatch replay the
// heterogeneous machine with unchanged arithmetic; Retime on a machine
// skeleton is bit-identical to SimulateMachine with the same inputs. An
// explicit RetimeScaled scale composes multiplicatively on top (drift over
// capability) and rounds (d·(1/e))·scale: the stretch first, the drift
// second. SimulateMachine on a ScaleCompute'd trace rounds (d·scale)·(1/e)
// instead, so the fresh equivalent of a scaled retime is the trace
// pre-stretched by m.ScaleVector(), then scaled, simulated on m without its
// Efficiency layer. A flat machine records a skeleton bit-identical to
// BuildSkeleton(t, m.Base, opts).
func BuildSkeletonMachine(t *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	return buildSkeleton(t, &m, opts)
}

func buildSkeleton(t *trace.Trace, m *Machine, opts Options) (*Skeleton, error) {
	idx, err := checkReplay(t, m, &opts)
	if err != nil {
		return nil, err
	}
	if err := faults.Check(faults.SkeletonBuild); err != nil {
		return nil, stagerr.Wrap(stagerr.Skeleton, err)
	}
	s := newSkeleton(t, idx, m, &opts)
	if _, err := replay(opts.Ctx, t, idx, m, s, stagerr.Skeleton); err != nil {
		return nil, err
	}
	return s, nil
}

// newSkeleton returns an empty skeleton of checked inputs, ready for replay
// to record into.
func newSkeleton(t *trace.Trace, idx *traceIndex, m *Machine, opts *Options) *Skeleton {
	return &Skeleton{
		nranks:   idx.nranks,
		nslots:   idx.totalSends,
		beta:     opts.Beta,
		fmax:     opts.FMax,
		overhead: m.Base.Overhead,
		ops:      make([]skelOp, 0, t.NumRecords()),
	}
}

// recordCompute appends one burst of dur (capability stretch included) with
// the record's β override, or none when beta < 0.
func (s *Skeleton) recordCompute(r int, dur, beta float64) {
	if beta < 0 {
		s.ops = append(s.ops, skelOp{kind: opCompute, rank: int32(r), f1: dur})
		return
	}
	s.ops = append(s.ops, skelOp{kind: opComputeBeta, rank: int32(r), f1: dur, arg: int32(len(s.betas))})
	s.betas = append(s.betas, beta)
}

// retimeContext holds the per-pass scratch arrays, recycled through a pool
// so a steady-state retime allocates nothing beyond what escapes into the
// Result.
type retimeContext struct {
	clock []float64 // per rank
	comp  []float64 // per rank
	sd    []float64 // per rank: default-β slowdown factor
	freq  []float64 // per rank: resolved frequency
	slot  []float64 // per send slot: eager ready time
}

var retimePool = sync.Pool{New: func() any { return new(retimeContext) }}

// grow returns s with length n without zeroing, reusing the backing array
// when possible. Callers must write every element before reading it.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fmax2 is math.Max for the values a replay produces. trace.Validate
// rejects the NaN/±Inf inputs that could breed NaN clocks, and no operand
// can be -0 (clocks are sums whose zero terms normalize to +0), which are
// the only inputs where a plain comparison differs from math.Max — so
// fmax2 is bit-identical to Simulate's math.Max while compiling to a
// branch instead of a function call, the retime loop's hottest operation.
func fmax2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Retime replays the skeleton under a per-rank frequency vector and returns
// a freshly allocated Result bit-identical to
// Simulate(trace, platform, Options{Beta, FMax, Freqs: freqs, RecordTimeline:
// recordTimeline}) for the trace/platform/β/FMax the skeleton was built
// from: Simulate answers such a call with this kernel over a fresh
// recording. freqs may be nil (every rank at FMax). Safe for concurrent use.
func (s *Skeleton) Retime(freqs []float64, recordTimeline bool) (*Result, error) {
	return s.RetimeScaled(freqs, nil, recordTimeline)
}

// RetimeInto is Retime writing into a caller-owned Result, reusing its
// Compute/Finish backing arrays: the steady state allocates nothing, which
// is what makes tight evaluation loops (gear searches, sweeps, batched
// serving) allocation-free. Timelines are never recorded; res.Timeline is
// reset to nil.
func (s *Skeleton) RetimeInto(res *Result, freqs []float64) error {
	return s.RetimeScaledInto(res, freqs, nil)
}

// RetimeScaled is Retime with every rank's computation durations
// additionally multiplied by scale[rank] before the frequency slowdown is
// applied. Because the retirement schedule is recorded without ever reading
// a clock, it stays valid for any computation durations over the same
// communication structure — so one skeleton can replay a whole family of
// load-perturbed executions. The result is bit-identical to
//
//	Simulate(trace.ScaleCompute(func(r, _) float64 { return scale[r] }),
//	         platform, Options{Beta, FMax, Freqs: freqs, ...})
//
// at a fraction of the cost (no trace copy, no re-validation, no fresh
// replay). On a skeleton recorded on a machine with an Efficiency layer the
// recorded durations already carry the stretch, so a burst of duration d
// runs for ((d·(1/e))·scale)·slowdown, where SimulateMachine runs it for
// (d·(1/e))·slowdown: the same bits as Simulate on the machine without its
// Efficiency layer, over the trace pre-stretched by Machine.ScaleVector and
// then scaled. scale may be nil (no scaling); entries must be finite and
// non-negative. This is what lets the online rebalancing controller
// (internal/rebalance) simulate N drifting iterations, and re-solve them,
// off a single skeleton. Safe for concurrent use.
func (s *Skeleton) RetimeScaled(freqs, scale []float64, recordTimeline bool) (*Result, error) {
	if err := s.checkVectors(freqs, scale); err != nil {
		return nil, err
	}
	res := &Result{}
	s.kernel(res, freqs, scale, recordTimeline)
	return res, nil
}

// RetimeScaledInto is RetimeScaled writing into a caller-owned Result (no
// timeline recording), allocation-free in the steady state like RetimeInto.
func (s *Skeleton) RetimeScaledInto(res *Result, freqs, scale []float64) error {
	if err := s.checkVectors(freqs, scale); err != nil {
		return err
	}
	s.kernel(res, freqs, scale, false)
	return nil
}

// checkVectors is the argument check every single-vector retime shares:
// freqs and scale must be nil or one valid entry per rank. It is also the
// retime stage's fault point.
func (s *Skeleton) checkVectors(freqs, scale []float64) error {
	if err := s.checkInputs(freqs, scale); err != nil {
		return err
	}
	if err := faults.Check(faults.Retime); err != nil {
		return stagerr.Wrap(stagerr.Retime, err)
	}
	return nil
}

// checkInputs is checkVectors without the fault point: the validate-stage
// check of freqs and of the load scales.
func (s *Skeleton) checkInputs(freqs, scale []float64) error {
	n := s.nranks
	if err := checkFreqs(freqs, n); err != nil {
		return stagerr.Errorf(stagerr.Validate, "dimemas: %v", err)
	}
	if scale != nil {
		if len(scale) != n {
			return stagerr.Errorf(stagerr.Validate, "dimemas: %d load scales for %d ranks", len(scale), n)
		}
		for r, m := range scale {
			if m < 0 || math.IsNaN(m) || math.IsInf(m, 1) {
				return stagerr.Errorf(stagerr.Validate, "dimemas: rank %d has invalid load scale %v", r, m)
			}
		}
	}
	return nil
}

// kernel is the one retime pass behind Retime, RetimeInto, RetimeScaled,
// RetimeScaledInto and RetimeDelta: it resolves (freqs, scale), walks the
// schedule and publishes the outcome into res, with segments when
// recordTimeline is set. Arguments must already be checked.
func (s *Skeleton) kernel(res *Result, freqs, scale []float64, recordTimeline bool) {
	c := s.prepare(freqs)
	defer retimePool.Put(c)
	var segs [][]Segment
	if recordTimeline {
		segs = s.timeline(c, scale)
	} else {
		s.walk(c, scale, s.ops)
	}

	res.Compute = append(res.Compute[:0], c.comp...)
	res.Finish = append(res.Finish[:0], c.clock...)
	res.Timeline = segs
	res.Time = 0
	for _, t := range c.clock {
		if t > res.Time {
			res.Time = t
		}
	}
}

// prepare takes a pass context from the pool with zeroed clocks and the
// per-rank frequencies and default-β slowdowns of freqs resolved; the caller
// returns it to retimePool.
func (s *Skeleton) prepare(freqs []float64) *retimeContext {
	n := s.nranks
	c := retimePool.Get().(*retimeContext)
	c.clock = resetSlice(c.clock, n)
	c.comp = resetSlice(c.comp, n)
	c.slot = grow(c.slot, s.nslots) // written by eager posts before receives read
	c.sd = grow(c.sd, n)
	c.freq = grow(c.freq, n)
	for r := 0; r < n; r++ {
		f := s.fmax
		if freqs != nil {
			f = freqs[r]
		}
		c.freq[r] = f
		// Slowdown is deterministic per argument triple, so evaluating it
		// once per rank yields the same bits as evaluating it once per
		// burst, as the reference engine does.
		c.sd[r] = timemodel.Slowdown(s.beta, s.fmax, f)
	}
	return c
}

// walk applies the op semantics of ops, a contiguous run of the schedule,
// to c's clocks. It is the only place the single-vector tiers spell out
// what each op kind does; the loop holds no function call and no timeline
// work.
func (s *Skeleton) walk(c *retimeContext, scale []float64, ops []skelOp) {
	n := s.nranks
	clock, comp, slot, sd, freq := c.clock, c.comp, c.slot, c.sd, c.freq
	ov := s.overhead
	for i := range ops {
		op := &ops[i]
		r := op.rank
		switch op.kind {
		case opCompute:
			// Scaling multiplies the fmax duration first, then the slowdown
			// — the association of a ScaleCompute'd trace, whose recording
			// holds the scaled durations, so RetimeScaled has the bits of
			// Simulate over that trace. A scale of 1 multiplies exactly, so
			// nil and all-ones scales give the same bits (RetimeDelta's memo
			// keys rely on it).
			f1 := op.f1
			if scale != nil {
				f1 *= scale[r]
			}
			d := f1 * sd[r]
			clock[r] += d
			comp[r] += d
		case opComputeBeta:
			f1 := op.f1
			if scale != nil {
				f1 *= scale[r]
			}
			d := f1 * timemodel.Slowdown(s.betas[op.arg], s.fmax, freq[r])
			clock[r] += d
			comp[r] += d
		case opSendEager:
			end := clock[r] + ov
			slot[op.arg] = end
			clock[r] = end
		case opRecvEager:
			clock[r] = fmax2(clock[r]+ov, slot[op.arg]+op.f1)
		case opRecvRend:
			// The sender has been frozen since its post: clock[src] is its
			// block start, +overhead its ready time. One op times the post,
			// the pairing and the sender's resume.
			end := fmax2(clock[r]+ov, clock[op.src]+ov) + op.f1
			clock[r] = end
			clock[op.src] = end
		case opColl:
			// Every rank is parked on this instance, so every clock is an
			// arrival time: reduce, add the modeled cost, release everyone.
			m := clock[0]
			for o := 1; o < n; o++ {
				if clock[o] > m {
					m = clock[o]
				}
			}
			end := m + op.f1
			for o := 0; o < n; o++ {
				clock[o] = end
			}
		}
	}
}

// timeline is the recording mode of kernel: it walks the schedule one op at
// a time and reads each op's completion back from the clock of the op's
// rank. An op's interval on a rank starts where that rank's previous op
// ended (0 before its first), so segment bookkeeping needs no arithmetic of
// its own and appends exactly the segments the reference engine records,
// in the same per-rank order. Stepping op by op keeps that bookkeeping out
// of the walk loop the non-recording tiers run: even a nil-guarded per-op
// store of completions inside the loop slowed the WRF-128 power-cap sweep
// by ~11%.
func (s *Skeleton) timeline(c *retimeContext, scale []float64) [][]Segment {
	segs := make([][]Segment, s.nranks)
	last := make([]float64, s.nranks) // per rank: completion of its previous op
	for i := range s.ops {
		s.walk(c, scale, s.ops[i:i+1])
		op := &s.ops[i]
		r := op.rank
		end := c.clock[r]
		switch op.kind {
		case opCompute, opComputeBeta:
			segs[r] = appendSeg(segs[r], last[r], end, StateCompute)
		case opRecvRend:
			// The fused op ends the receive and the frozen sender's block.
			segs[r] = appendSeg(segs[r], last[r], end, StateComm)
			segs[op.src] = appendSeg(segs[op.src], last[op.src], end, StateComm)
			last[op.src] = end
		case opColl:
			for o := range segs {
				segs[o] = appendSeg(segs[o], last[o], end, StateComm)
				last[o] = end
			}
		default: // eager send or receive
			segs[r] = appendSeg(segs[r], last[r], end, StateComm)
		}
		last[r] = end
	}
	return segs
}

// appendSeg appends one timeline interval, merging it with the previous
// segment when contiguous and same state.
func appendSeg(segs []Segment, start, end float64, st State) []Segment {
	if end <= start {
		return segs
	}
	if n := len(segs); n > 0 && segs[n-1].State == st && segs[n-1].End >= start-1e-15 {
		segs[n-1].End = end
		return segs
	}
	return append(segs, Segment{Start: start, End: end, State: st})
}
