package dimemas

// Slack certificates: a proof, without a retime pass, that lowering one
// rank's frequency makes the run slower. The power-cap scheduler's slack
// reclamation probes every rank one gear down and keeps a move only when
// the execution time is unchanged; most probes come out slower, and the
// slack the forward walk already measured proves it.
//
// The table holds, for every compute op i of the base vector's walk,
// head(i) — the rank's clock just before op i — and tail(i) — the longest
// path from op i's completion to the end of the run, from one backward pass
// over the schedule. A probe that runs op i for d instead is certainly
// slower than the base time T₀ if head(i) + d + tail(i) > T₀ × (1 + 4γ),
// with γ = γ_{2L+8} = (2L+8)u / (1 − (2L+8)u), L = len(ops), u = 2⁻⁵³.
//
// Proof. Every walk op is a float `+` of a non-negative term (a duration,
// the overhead, a wire time or a collective cost) or an exact fmax2, and
// fl(x + c) does not fall as x rises, so fmax2 commutes with the rounding:
// a clock equals the maximum, over the dependency paths into it, of the
// path's terms summed left to right in floats, and Time is that maximum
// over whole paths. A path takes at most two terms per op (opRecvRend adds
// the overhead and the wire time), so at most 2L, and a float sum of m
// non-negative terms lies within (1 ± u)^m of their exact sum.
//
//   - head(i) is the forward sum of some path P into op i, so head(i) ≤
//     (1 + u)^a·H for H the exact sum of P's a terms; the backward pass
//     sums right to left with the same ops transposed, so tail(i) ≤
//     (1 + u)^b·S for the exact sum S of some path out of op i, and
//     a + b + 1 ≤ 2L. The screen's (head + d) + tail is at most
//     (1 + u)^{2L+1}·(H + d + S).
//   - Slowdown = β(fmax/f − 1) + 1 with β ≥ 0 is a chain of monotone float
//     ops, so it does not rise with f, and neither does a duration f1 ×
//     Slowdown. A probe vector at or below the base frequencies on every
//     rank therefore lengthens every term, and op i's term is d itself.
//     Where the compiler fuses the walk's multiply into its add, a compute
//     term enters as the exact product, which the rounded d exceeds by at
//     most a factor 1 + u. A load scale only changes which fixed
//     non-negative duration (f1·scale, rounded once) multiplies the
//     slowdown, so every step holds for a scaled walk unchanged.
//   - P, op i and the path out of op i form one path of the probe's walk,
//     whose float sum is at least (1 − u)^{2L}·(H + d + S)/(1 + u).
//
// So the probe's Time is at least (1 − u)^{2L}/(1 + u)^{2L+2} ≥ 1 − (4L+2)u
// times the screened sum, and the screened sum exceeds the float limit,
// itself at least T₀·(1 + (8L+32)u)(1 − u)⁴: their product exceeds T₀ for
// any L below 2⁴⁸. ∎
//
// The same argument covers a whole sequence of probes: a vector that
// descends from the base one keeps every term at least the table's, so one
// table stays valid for every probe that only lowers frequencies further,
// as long as the bound compared against is the base time.

import "repro/internal/timemodel"

// SlackTable is the head/tail table of one (frequency vector, load scale)
// retime pass (see Skeleton.Slack). It is immutable and safe for
// concurrent use. A nil table certifies nothing.
type SlackTable struct {
	skel  *Skeleton
	limit float64 // the base vector's execution time × (1 + 4γ_{2L+8})
	start []int32 // per rank: first entry; start[nranks] = len(ent)
	ent   []slackEntry
}

// slackEntry is one compute op of the base walk, grouped by rank in
// schedule order.
type slackEntry struct {
	head, tail float64
	f1         float64 // duration at fmax (capability stretch and scale included)
	beta       int32   // index into Skeleton.betas; -1 for the default β
}

// Slack builds the head/tail table of freqs (nil means every rank at FMax)
// under per-rank load scales (nil means none, as in RetimeScaled) with one
// forward and one backward pass over the schedule. The table certifies
// probes of RetimeScaled and RetimeDelta under the same scale.
func (s *Skeleton) Slack(freqs, scale []float64) (*SlackTable, error) {
	if err := s.checkInputs(freqs, scale); err != nil {
		return nil, err
	}
	n := s.nranks
	t := &SlackTable{skel: s, start: make([]int32, n+1)}
	for i := range s.ops {
		if k := s.ops[i].kind; k == opCompute || k == opComputeBeta {
			t.start[s.ops[i].rank+1]++
		}
	}
	for r := 0; r < n; r++ {
		t.start[r+1] += t.start[r]
	}
	t.ent = make([]slackEntry, t.start[n])
	pos := make([]int32, n)
	copy(pos, t.start[:n])

	// Forward: the walk itself, one op at a time, reading each compute
	// op's head off its rank's clock.
	c := s.prepare(freqs)
	defer retimePool.Put(c)
	for i := range s.ops {
		op := &s.ops[i]
		if op.kind == opCompute || op.kind == opComputeBeta {
			e := &t.ent[pos[op.rank]]
			pos[op.rank]++
			e.head, e.f1, e.beta = c.clock[op.rank], op.f1, -1
			if scale != nil {
				e.f1 = float64(op.f1 * scale[op.rank]) // walk's rounding
			}
			if op.kind == opComputeBeta {
				e.beta = op.arg
			}
		}
		s.walk(c, scale, s.ops[i:i+1])
	}
	var time float64 // the base vector's Time, as kernel computes it
	for _, v := range c.clock {
		if v > time {
			time = v
		}
	}

	// Backward: rest[r] is the longest path from rank r's clock at this
	// point of the schedule to the end; slot[k] the longest path from
	// eager message k's ready time.
	rest := resetSlice(c.comp, n)
	slot := resetSlice(c.slot, s.nslots)
	ov := s.overhead
	for i := len(s.ops) - 1; i >= 0; i-- {
		op := &s.ops[i]
		r := op.rank
		switch op.kind {
		case opCompute, opComputeBeta:
			pos[r]--
			e := &t.ent[pos[r]]
			e.tail = rest[r]
			rest[r] += t.duration(e, c.freq[r])
		case opSendEager:
			rest[r] = ov + fmax2(rest[r], slot[op.arg])
		case opRecvEager:
			slot[op.arg] = op.f1 + rest[r]
			rest[r] += ov
		case opRecvRend:
			v := ov + (op.f1 + fmax2(rest[r], rest[op.src]))
			rest[r], rest[op.src] = v, v
		case opColl:
			m := rest[0]
			for _, v := range rest[1:] {
				m = fmax2(m, v)
			}
			v := op.f1 + m
			for o := range rest {
				rest[o] = v
			}
		}
	}

	const u = 0x1p-53
	ku := float64(2*len(s.ops)+8) * u
	t.limit = time * (1 + 4*(ku/(1-ku)))
	return t, nil
}

// duration is e's compute duration at frequency f, rounded exactly as the
// walk rounds it when the multiply is not fused into the clock update.
func (t *SlackTable) duration(e *slackEntry, f float64) float64 {
	s := t.skel
	beta := s.beta
	if e.beta >= 0 {
		beta = s.betas[e.beta]
	}
	return float64(e.f1 * timemodel.Slowdown(beta, s.fmax, f))
}

// Slower reports a proof that moving rank to freq makes the run slower:
// when it returns true, every frequency vector that sets rank to freq and
// keeps each rank at or below the table's base frequency (freq included)
// retimes to a Time strictly above the base vector's. False proves nothing — the probe
// needs a retime pass. freq must be positive and finite.
func (t *SlackTable) Slower(rank int, freq float64) bool {
	if t == nil {
		return false
	}
	s := t.skel
	sd := timemodel.Slowdown(s.beta, s.fmax, freq)
	for i := t.start[rank]; i < t.start[rank+1]; i++ {
		e := &t.ent[i]
		var d float64
		if e.beta < 0 {
			d = float64(e.f1 * sd)
		} else {
			d = t.duration(e, freq)
		}
		if e.head+d+e.tail > t.limit {
			return true
		}
	}
	return false
}
