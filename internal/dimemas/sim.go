package dimemas

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/dvfs"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

// State labels a timeline segment for visualization.
type State uint8

const (
	// StateCompute marks a computation burst.
	StateCompute State = iota
	// StateComm marks communication: MPI overhead, transfer and blocked time.
	StateComm
)

// Segment is one interval of a rank's timeline.
type Segment struct {
	Start, End float64
	State      State
}

// Options configure one simulation run.
type Options struct {
	// Beta is the default memory-boundedness for compute records without an
	// explicit override. Zero value 0 is a legal β; use DefaultOptions for
	// the paper's 0.5.
	Beta float64
	// FMax is the nominal top frequency all trace durations refer to.
	FMax float64
	// Freqs is the per-rank CPU frequency; nil means every rank runs at
	// FMax (the original execution).
	Freqs []float64
	// RecordTimeline enables per-rank segment collection (Figure 1).
	RecordTimeline bool
	// Ctx optionally bounds the replay: Simulate (and skeleton
	// construction) polls it periodically and aborts with its error once it
	// is done, so servers can stop paying for work whose request already
	// timed out. Nil means the replay always runs to completion. The
	// context never influences the simulated result — only whether the
	// replay finishes.
	Ctx context.Context
}

// DefaultOptions returns the paper's baseline: β = 0.5, fmax = 2.3 GHz,
// every rank at top frequency.
func DefaultOptions() Options {
	return Options{Beta: timemodel.DefaultBeta, FMax: dvfs.FMax}
}

// ModelOptions is the one statement of how a pipeline config's time-model
// parameters resolve. A nil beta selects the paper's default β = 0.5
// (timemodel.DefaultBeta); an explicit β, 0 included, must lie in [0, 1].
// β = 0 is legal in the time model but makes DVFS free, and every study in
// the paper uses β ≥ 0.3, so a fully memory-bound run has to be asked for
// with an explicit pointer rather than reached by a forgotten field. A zero
// fmax selects dvfs.FMax. Errors carry the validate stage.
func ModelOptions(beta *float64, fmax float64) (Options, error) {
	o := Options{Beta: timemodel.DefaultBeta, FMax: fmax}
	if beta != nil {
		o.Beta = *beta
	}
	if o.FMax == 0 {
		o.FMax = dvfs.FMax
	}
	if err := o.validateModel(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// validateModel checks the model parameters shared by Simulate and
// BuildSkeleton. NaN and +Inf are rejected explicitly: NaN slips through the
// range comparisons, and either one breeds NaN clocks, on which the
// retimer's branch max and math.Max disagree.
func (o *Options) validateModel() error {
	if o.FMax <= 0 || math.IsNaN(o.FMax) || math.IsInf(o.FMax, 1) {
		return stagerr.Errorf(stagerr.Validate, "dimemas: FMax must be positive and finite, got %v", o.FMax)
	}
	if o.Beta < 0 || o.Beta > 1 || math.IsNaN(o.Beta) {
		return stagerr.Errorf(stagerr.Validate, "dimemas: beta %v outside [0, 1]", o.Beta)
	}
	return nil
}

// checkFreqs is the one per-rank frequency check behind Simulate and every
// retime tier: freqs must be nil (every rank at FMax) or hold one positive,
// finite frequency per rank. Callers add their own prefix and stage.
func checkFreqs(freqs []float64, n int) error {
	if freqs == nil {
		return nil
	}
	if len(freqs) != n {
		return fmt.Errorf("%d frequencies for %d ranks", len(freqs), n)
	}
	for r, f := range freqs {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 1) {
			return fmt.Errorf("rank %d has invalid frequency %v", r, f)
		}
	}
	return nil
}

// Result reports one simulated execution.
type Result struct {
	// Time is the execution time of the whole application (the last rank's
	// finish).
	Time float64
	// Compute is each rank's time spent computing (already rescaled for its
	// frequency).
	Compute []float64
	// Finish is each rank's local finish time.
	Finish []float64
	// Timeline holds per-rank segments when Options.RecordTimeline is set.
	Timeline [][]Segment
}

// Comm returns rank r's non-compute time over the whole run: the CPU is
// powered from t=0 to Result.Time, so everything that is not computation is
// communication, blocking or idle tail.
func (r *Result) Comm(rank int) float64 { return r.Time - r.Compute[rank] }

// ErrDeadlock reports that the replay stopped with blocked ranks.
var ErrDeadlock = errors.New("dimemas: deadlock")

type blockKind uint8

const (
	notBlocked blockKind = iota
	blockedRecv
	blockedSend
	blockedColl
)

// traceIndex is the one-time, platform-independent precomputation for a
// trace: its validation verdict, the flat channel table (every (src, dst,
// tag) triple gets a dense id), the per-record channel id, and the arena
// sizes. It is built on first replay and cached on the trace itself via
// trace.ReplayIndex, so repeated replays of the same immutable trace skip
// both validation and channel discovery entirely.
type traceIndex struct {
	err        error // cached Validate verdict
	nranks     int
	numColls   int       // collectives per rank (identical across ranks once valid)
	totalSends int       // arena size: one slot per send record
	chanOf     [][]int32 // [rank][record] dense channel id; -1 for non-p2p records
	chanBase   []int32   // per channel: first arena slot
	chanSrc    []int32   // per channel: sending rank (for rendezvous wake-ups)
}

// buildIndex validates the trace and derives its channel tables in one
// pass (trace.Match); the replay adds only the arena layout. The hot replay
// path sees nothing but dense slices.
func buildIndex(t *trace.Trace) any {
	idx := &traceIndex{nranks: t.NumRanks()}
	ch, err := t.Match()
	if err != nil {
		idx.err = err
		return idx
	}
	idx.chanOf, idx.chanSrc, idx.numColls = ch.Of, ch.Src, ch.Colls
	idx.chanBase = make([]int32, len(ch.Sends))
	var base int32
	for c, cnt := range ch.Sends {
		idx.chanBase[c] = base
		base += cnt
	}
	idx.totalSends = int(base)
	return idx
}

// sendEntry is one posted send, stored by value in the per-run arena.
type sendEntry struct {
	ready      float64 // sender-side ready time (after overhead)
	end        float64 // rendezvous completion time
	bytes      int64
	rendezvous bool
	done       bool // rendezvous pairing completed
}

// chanState is the per-run view of one channel: a window into the send
// arena plus the identity of a receiver parked on it, if any.
type chanState struct {
	base   int32 // first arena slot (copied from the index for locality)
	posted int32 // sends posted so far
	paired int32 // sends consumed by receives so far
	waiter int32 // rank blocked in a recv on this channel; -1 when none
}

type collInstance struct {
	maxReady float64
	end      float64
	arrived  int32
	complete bool
}

type rankState struct {
	pc      int32
	collIdx int32 // next collective index for this rank
	sendIdx int32 // arena slot of the pending rendezvous send (blockedSend)
	blocked blockKind
	clock   float64
	compute float64
}

// simContext holds all per-run scratch state. Contexts are recycled through
// a sync.Pool so steady-state replays allocate only the returned Result.
type simContext struct {
	ranks  []rankState
	chans  []chanState
	colls  []collInstance
	sends  []sendEntry
	queue  []int32 // ready queue: appended on wake, drained by a head cursor
	queued []bool  // queue membership per rank
	// Cooperative cancellation: step polls Options.Ctx every cancelStride
	// retired records (a single step call can retire a rank's whole
	// stream, so polling only between queue pops is not enough).
	steps     int
	cancelled bool
}

// cancelStride is how many retired records may pass between context polls.
const cancelStride = 4096

var ctxPool = sync.Pool{New: func() any { return new(simContext) }}

// resetSlice returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

func (c *simContext) reset(idx *traceIndex) {
	c.ranks = resetSlice(c.ranks, idx.nranks)
	c.colls = resetSlice(c.colls, idx.numColls)
	c.sends = resetSlice(c.sends, idx.totalSends)
	c.queued = resetSlice(c.queued, idx.nranks)
	c.queue = c.queue[:0]
	if cap(c.chans) < len(idx.chanBase) {
		c.chans = make([]chanState, len(idx.chanBase))
	}
	c.chans = c.chans[:len(idx.chanBase)]
	for i := range c.chans {
		c.chans[i] = chanState{base: idx.chanBase[i], waiter: -1}
	}
	c.steps = 0
	c.cancelled = false
}

// Simulate replays the trace on the platform. It is deterministic: the same
// inputs always produce the same result, and the result is bit-identical to
// the original round-robin polling engine (the per-rank floating-point
// operation sequence is unchanged; only the scheduling of runnable ranks
// differs, and no arithmetic crosses rank boundaries except order-invariant
// max reductions).
//
// The scheduler itself only ever runs at FMax. A call with nil Freqs and no
// timeline is that replay; any other call records the replay into a
// skeleton and answers with one pass of the retime kernel, the only place
// DVFS slowdowns and timeline segments are computed.
func Simulate(t *trace.Trace, p Platform, opts Options) (*Result, error) {
	m := Machine{Base: p}
	return simulate(t, &m, opts)
}

// SimulateMachine is Simulate on the layered machine model: point-to-point
// wire times are resolved per (sender, receiver) pair through the topology
// layer, collectives are priced over the slowest spanned link, and each
// rank's compute bursts are stretched by 1/Efficiency[r]. The replay records
// the stretched durations, and the retime kernel applies the DVFS slowdown
// to them, so a burst of d runs for (d·(1/e))·slowdown. A flat machine —
// both layers nil — is bit-identical to Simulate(t, m.Base, opts).
func SimulateMachine(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	return simulate(t, &m, opts)
}

func simulate(t *trace.Trace, m *Machine, opts Options) (*Result, error) {
	idx, err := checkReplay(t, m, &opts)
	if err != nil {
		return nil, err
	}
	if err := checkFreqs(opts.Freqs, idx.nranks); err != nil {
		return nil, stagerr.Errorf(stagerr.Validate, "dimemas: %v", err)
	}
	if opts.Freqs == nil && !opts.RecordTimeline {
		return replay(opts.Ctx, t, idx, m, nil, stagerr.Retime)
	}
	s := newSkeleton(t, idx, m, &opts)
	if _, err := replay(opts.Ctx, t, idx, m, s, stagerr.Retime); err != nil {
		return nil, err
	}
	res := &Result{}
	s.kernel(res, opts.Freqs, nil, opts.RecordTimeline)
	return res, nil
}

// checkReplay is the input check Simulate and BuildSkeleton share, in the
// order both report failures: platform, trace, machine layers, then the
// model parameters. It returns the trace's replay index.
func checkReplay(t *trace.Trace, m *Machine, opts *Options) (*traceIndex, error) {
	if err := m.Base.Validate(); err != nil {
		return nil, err
	}
	idx := t.ReplayIndex(buildIndex).(*traceIndex)
	if idx.err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, idx.err)
	}
	if !m.Flat() {
		if err := m.ValidateFor(idx.nranks); err != nil {
			return nil, err
		}
	}
	if err := opts.validateModel(); err != nil {
		return nil, err
	}
	return idx, nil
}

// replay is the one scheduler: it runs checked inputs to completion with
// every rank at FMax and, when sk is non-nil, appends every retirement to
// sk's schedule as it happens (see skeleton.go), so the skeleton's op order
// is by construction the order this engine retires events in. At FMax every
// DVFS slowdown is exactly 1, so a burst costs its (capability-stretched)
// duration. A deadlock is reported under stage; ctx may be nil. The
// Result is nil when recording: recording callers retime sk instead.
func replay(ctx context.Context, t *trace.Trace, idx *traceIndex, m *Machine, sk *Skeleton, stage stagerr.Stage) (*Result, error) {
	n := idx.nranks
	c := ctxPool.Get().(*simContext)
	defer ctxPool.Put(c)
	c.reset(idx)
	scale := m.ScaleVector()

	// Every rank starts runnable, in rank order. After that, a rank is
	// revisited only when the event it is parked on fires: a send posted on
	// the channel its recv is waiting for, the pairing of its rendezvous
	// send, or the completion of its collective.
	for r := 0; r < n; r++ {
		c.queue = append(c.queue, int32(r))
		c.queued[r] = true
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for head := 0; head < len(c.queue); head++ {
		r := c.queue[head]
		c.queued[r] = false
		c.step(ctx, int(r), t, idx, m, scale, sk)
		if c.cancelled {
			return nil, ctx.Err()
		}
	}
	for r := 0; r < n; r++ {
		if int(c.ranks[r].pc) < len(t.Ranks[r]) {
			return nil, stagerr.Wrap(stage, deadlockError(t, func(r int) int { return int(c.ranks[r].pc) }))
		}
	}

	if sk != nil {
		return nil, nil
	}
	res := &Result{
		Compute: make([]float64, n),
		Finish:  make([]float64, n),
	}
	for r := range c.ranks {
		res.Compute[r] = c.ranks[r].compute
		res.Finish[r] = c.ranks[r].clock
		if c.ranks[r].clock > res.Time {
			res.Time = c.ranks[r].clock
		}
	}
	return res, nil
}

// wake marks a rank runnable. Spurious wakes are harmless: step re-checks
// the parked condition and returns immediately when it still holds.
func (c *simContext) wake(r int32) {
	if !c.queued[r] {
		c.queued[r] = true
		c.queue = append(c.queue, r)
	}
}

// step retires as many records as possible for rank r, parking it on the
// first event that has not fired yet and waking the ranks unblocked by its
// own progress. With a recorder sk, each retirement also appends its op.
func (c *simContext) step(ctx context.Context, r int, t *trace.Trace, idx *traceIndex, m *Machine, scale []float64, sk *Skeleton) {
	rs := &c.ranks[r]
	recs := t.Ranks[r]
	chanOf := idx.chanOf[r]
	n := idx.nranks
	for int(rs.pc) < len(recs) {
		if ctx != nil {
			if c.steps++; c.steps%cancelStride == 0 && ctx.Err() != nil {
				c.cancelled = true
				return
			}
		}
		rec := &recs[rs.pc]
		switch rs.blocked {
		case blockedSend:
			e := &c.sends[rs.sendIdx]
			if !e.done {
				return
			}
			rs.clock = e.end
			rs.blocked = notBlocked
			rs.pc++
			continue
		case blockedColl:
			ci := &c.colls[rs.collIdx]
			if !ci.complete {
				return
			}
			rs.clock = ci.end
			rs.collIdx++
			rs.blocked = notBlocked
			rs.pc++
			continue
		case blockedRecv:
			// Re-attempt the pairing below; the overhead is already paid.
		}

		switch rec.Kind {
		case trace.KindCompute:
			d := rec.Duration
			if scale != nil {
				d *= scale[r]
			}
			if sk != nil {
				sk.recordCompute(r, d, rec.Beta)
			}
			rs.clock += d
			rs.compute += d
			rs.pc++

		case trace.KindSend:
			rs.clock += m.Base.Overhead
			ch := &c.chans[chanOf[rs.pc]]
			si := ch.base + ch.posted
			ch.posted++
			e := &c.sends[si]
			*e = sendEntry{ready: rs.clock, bytes: rec.Bytes, rendezvous: rec.Bytes > m.Base.EagerLimit}
			if ch.waiter >= 0 {
				c.wake(ch.waiter)
				ch.waiter = -1
			}
			if e.rendezvous {
				rs.blocked = blockedSend
				rs.sendIdx = si
				return
			}
			if sk != nil {
				sk.ops = append(sk.ops, skelOp{kind: opSendEager, rank: int32(r), arg: si})
			}
			rs.pc++

		case trace.KindRecv:
			if rs.blocked != blockedRecv {
				rs.clock += m.Base.Overhead
			}
			cid := chanOf[rs.pc]
			ch := &c.chans[cid]
			if ch.paired >= ch.posted {
				rs.blocked = blockedRecv
				ch.waiter = int32(r)
				return
			}
			si := ch.base + ch.paired
			e := &c.sends[si]
			ch.paired++
			src := idx.chanSrc[cid]
			wire := m.transferPair(int(src), r, e.bytes)
			if e.rendezvous {
				end := math.Max(rs.clock, e.ready) + wire
				e.done = true
				e.end = end
				rs.clock = end
				c.wake(src)
				if sk != nil {
					sk.ops = append(sk.ops, skelOp{kind: opRecvRend, rank: int32(r), src: src, f1: wire})
				}
			} else {
				arrival := e.ready + wire
				rs.clock = math.Max(rs.clock, arrival)
				if sk != nil {
					sk.ops = append(sk.ops, skelOp{kind: opRecvEager, rank: int32(r), arg: si, f1: wire})
				}
			}
			rs.blocked = notBlocked
			rs.pc++

		case trace.KindColl:
			ci := &c.colls[rs.collIdx]
			ci.arrived++
			if rs.clock > ci.maxReady {
				ci.maxReady = rs.clock
			}
			if int(ci.arrived) == n {
				// Validate guarantees every rank joins an instance with the
				// same operation and payload, so the last arrival's record
				// prices it under any gear assignment.
				cost := m.collectiveCost(rec.Coll, rec.Bytes, n)
				ci.complete = true
				ci.end = ci.maxReady + cost
				if sk != nil {
					sk.ops = append(sk.ops, skelOp{kind: opColl, rank: int32(r), f1: cost})
				}
				rs.clock = ci.end
				collID := rs.collIdx
				rs.collIdx++
				rs.pc++
				for o := range c.ranks {
					if c.ranks[o].blocked == blockedColl && c.ranks[o].collIdx == collID {
						c.wake(int32(o))
					}
				}
				continue
			}
			rs.blocked = blockedColl
			return

		case trace.KindIterMark:
			rs.pc++

		default:
			// Unreachable after Validate; defensive.
			rs.pc++
		}
	}
}

// deadlockError formats the blocked-ranks diagnostic from each rank's stuck
// program counter, the message Simulate and BuildSkeleton both surface.
func deadlockError(t *trace.Trace, pc func(rank int) int) error {
	var sb strings.Builder
	for r := range t.Ranks {
		at := pc(r)
		if at >= len(t.Ranks[r]) {
			continue
		}
		rec := t.Ranks[r][at]
		fmt.Fprintf(&sb, " rank %d at record %d (%v)", r, at, rec.Kind)
	}
	return fmt.Errorf("%w:%s", ErrDeadlock, sb.String())
}
