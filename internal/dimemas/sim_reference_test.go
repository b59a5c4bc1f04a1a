package dimemas

// simulateReference is the pre-event-driven replay engine: a round-robin
// polling loop over all ranks with map-backed channels and per-record heap
// allocations, computing every DVFS slowdown and timeline segment inline as
// the engine first did. It is the reference truth for the equivalence tests
// — production Simulate (an FMax replay, plus a recording and one retime
// pass for frequencies and timelines) must stay bit-identical to it for
// every valid trace, because all of the paper's reported numbers were first
// produced by this loop. simulateReferenceMachine extends it to the layered
// machine model, so SimulateMachine is checked against an engine that does
// not share its scheduler or its retime kernel.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/timemodel"
	"repro/internal/trace"
)

type refChanKey struct{ src, dst, tag int }

type refSendEntry struct {
	ready      float64 // sender-side ready time (after overhead)
	bytes      int64
	rendezvous bool
	done       bool    // rendezvous pairing completed
	end        float64 // rendezvous completion time
}

type refChannel struct {
	sends    []*refSendEntry
	nextSend int // first unpaired entry
}

type refCollInstance struct {
	arrived  int
	maxReady float64
	complete bool
	end      float64
}

type refRankState struct {
	pc         int
	clock      float64
	compute    float64
	blocked    blockKind
	blockStart float64
	sendEntry  *refSendEntry // for blockedSend
	collIdx    int           // next collective index for this rank
	segs       []Segment
}

func simulateReference(t *trace.Trace, p Platform, opts Options) (*Result, error) {
	return simulateReferenceMachine(t, &Machine{Base: p}, opts)
}

// simulateReferenceMachine prices point-to-point messages per (sender,
// receiver) pair through transferPair and collectives over the spanned link
// through collectiveCost, and stretches each burst by 1/Efficiency[rank]
// before applying the slowdown. On a flat machine every operation is the
// flat engine's.
func simulateReferenceMachine(t *trace.Trace, m *Machine, opts Options) (*Result, error) {
	p := m.Base
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NumRanks()
	if err := m.ValidateFor(n); err != nil {
		return nil, err
	}
	var eff []float64
	if m.Cap != nil {
		eff = m.Cap.Efficiency
	}
	if opts.FMax <= 0 {
		return nil, fmt.Errorf("dimemas: FMax must be positive, got %v", opts.FMax)
	}
	if opts.Beta < 0 || opts.Beta > 1 {
		return nil, fmt.Errorf("dimemas: beta %v outside [0, 1]", opts.Beta)
	}
	freqs := opts.Freqs
	if freqs == nil {
		freqs = make([]float64, n)
		for i := range freqs {
			freqs[i] = opts.FMax
		}
	}
	if len(freqs) != n {
		return nil, fmt.Errorf("dimemas: %d frequencies for %d ranks", len(freqs), n)
	}
	for r, f := range freqs {
		if f <= 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("dimemas: rank %d has invalid frequency %v", r, f)
		}
	}

	ranks := make([]refRankState, n)
	channels := map[refChanKey]*refChannel{}
	var colls []*refCollInstance

	getChan := func(k refChanKey) *refChannel {
		c := channels[k]
		if c == nil {
			c = &refChannel{}
			channels[k] = c
		}
		return c
	}
	getColl := func(i int) *refCollInstance {
		for len(colls) <= i {
			colls = append(colls, &refCollInstance{})
		}
		return colls[i]
	}
	addSeg := func(rs *refRankState, start, end float64, st State) {
		if !opts.RecordTimeline || end <= start {
			return
		}
		if n := len(rs.segs); n > 0 && rs.segs[n-1].State == st && rs.segs[n-1].End >= start-1e-15 {
			rs.segs[n-1].End = end
			return
		}
		rs.segs = append(rs.segs, Segment{Start: start, End: end, State: st})
	}

	// step executes as many records as possible for rank r.
	step := func(r int) bool {
		rs := &ranks[r]
		recs := t.Ranks[r]
		progressed := false
		for rs.pc < len(recs) {
			rec := recs[rs.pc]
			switch rs.blocked {
			case blockedSend:
				if !rs.sendEntry.done {
					return progressed
				}
				addSeg(rs, rs.blockStart, rs.sendEntry.end, StateComm)
				rs.clock = rs.sendEntry.end
				rs.sendEntry = nil
				rs.blocked = notBlocked
				rs.pc++
				progressed = true
				continue
			case blockedColl:
				ci := getColl(rs.collIdx)
				if !ci.complete {
					return progressed
				}
				addSeg(rs, rs.blockStart, ci.end, StateComm)
				rs.clock = ci.end
				rs.collIdx++
				rs.blocked = notBlocked
				rs.pc++
				progressed = true
				continue
			case blockedRecv:
				// Re-attempt the pairing below.
			}

			switch rec.Kind {
			case trace.KindCompute:
				beta := rec.Beta
				if beta < 0 {
					beta = opts.Beta
				}
				d := rec.Duration
				if eff != nil {
					d *= 1 / eff[r]
				}
				d *= timemodel.Slowdown(beta, opts.FMax, freqs[r])
				addSeg(rs, rs.clock, rs.clock+d, StateCompute)
				rs.clock += d
				rs.compute += d
				rs.pc++
				progressed = true

			case trace.KindSend:
				start := rs.clock
				rs.clock += p.Overhead
				ch := getChan(refChanKey{r, rec.Peer, rec.Tag})
				e := &refSendEntry{ready: rs.clock, bytes: rec.Bytes, rendezvous: rec.Bytes > p.EagerLimit}
				ch.sends = append(ch.sends, e)
				if e.rendezvous {
					rs.blocked = blockedSend
					rs.blockStart = start
					rs.sendEntry = e
					return progressed
				}
				addSeg(rs, start, rs.clock, StateComm)
				rs.pc++
				progressed = true

			case trace.KindRecv:
				if rs.blocked != blockedRecv {
					rs.blockStart = rs.clock
					rs.clock += p.Overhead
				}
				ch := getChan(refChanKey{rec.Peer, r, rec.Tag})
				if ch.nextSend >= len(ch.sends) {
					rs.blocked = blockedRecv
					return progressed
				}
				e := ch.sends[ch.nextSend]
				ch.nextSend++
				wire := m.transferPair(rec.Peer, r, e.bytes)
				if e.rendezvous {
					end := math.Max(rs.clock, e.ready) + wire
					e.done = true
					e.end = end
					rs.clock = end
				} else {
					arrival := e.ready + wire
					rs.clock = math.Max(rs.clock, arrival)
				}
				addSeg(rs, rs.blockStart, rs.clock, StateComm)
				rs.blocked = notBlocked
				rs.pc++
				progressed = true

			case trace.KindColl:
				ci := getColl(rs.collIdx)
				ci.arrived++
				if rs.clock > ci.maxReady {
					ci.maxReady = rs.clock
				}
				if ci.arrived == n {
					ci.complete = true
					ci.end = ci.maxReady + m.collectiveCost(rec.Coll, rec.Bytes, n)
					addSeg(rs, rs.clock, ci.end, StateComm)
					rs.clock = ci.end
					rs.collIdx++
					rs.pc++
					progressed = true
					continue
				}
				rs.blocked = blockedColl
				rs.blockStart = rs.clock
				return progressed

			case trace.KindIterMark:
				rs.pc++
				progressed = true

			default:
				rs.pc++
				progressed = true
			}
		}
		return progressed
	}

	for {
		progressed := false
		done := true
		for r := 0; r < n; r++ {
			if ranks[r].pc < len(t.Ranks[r]) {
				if step(r) {
					progressed = true
				}
				if ranks[r].pc < len(t.Ranks[r]) {
					done = false
				}
			}
		}
		if done {
			break
		}
		if !progressed {
			return nil, refDeadlockError(t, ranks)
		}
	}

	res := &Result{
		Compute: make([]float64, n),
		Finish:  make([]float64, n),
	}
	if opts.RecordTimeline {
		res.Timeline = make([][]Segment, n)
	}
	for r := range ranks {
		res.Compute[r] = ranks[r].compute
		res.Finish[r] = ranks[r].clock
		if ranks[r].clock > res.Time {
			res.Time = ranks[r].clock
		}
		if opts.RecordTimeline {
			res.Timeline[r] = ranks[r].segs
		}
	}
	return res, nil
}

func refDeadlockError(t *trace.Trace, ranks []refRankState) error {
	var sb strings.Builder
	for r := range ranks {
		if ranks[r].pc >= len(t.Ranks[r]) {
			continue
		}
		rec := t.Ranks[r][ranks[r].pc]
		fmt.Fprintf(&sb, " rank %d at record %d (%v)", r, ranks[r].pc, rec.Kind)
	}
	return fmt.Errorf("%w:%s", ErrDeadlock, sb.String())
}
