package dimemas

// Memoized retiming for optimizer loops: the gear search, the power-cap
// refinement and the online rebalancer score long candidate sequences that
// keep returning to a vector they scored a moment ago — a greedy move is
// probed, rejected, and the base is scored again. RetimeDelta remembers the
// last two distinct resolved (freqs, scale) vectors with their Results, so
// such a return costs a comparison; any other call runs the same linear
// kernel as Retime. The output is bit-identical to RetimeScaled for the same
// arguments either way.

// DeltaState is RetimeDelta's memo: the last two distinct resolved
// parameter vectors and their Results. A zero DeltaState is ready to use. A
// state binds to the skeleton it is used with — passing it to a different
// skeleton drops both entries and rebinds. Not safe for concurrent use; use
// one DeltaState per goroutine.
type DeltaState struct {
	skel    *Skeleton
	entries [2]deltaEntry
	mru     int // index of the most recently used entry
	stats   DeltaStats
}

// deltaEntry is one memoized pass.
type deltaEntry struct {
	valid bool
	freqs []float64 // resolved per rank (nil input → fmax)
	scale []float64 // resolved per rank (nil input → 1)
	res   Result
}

// DeltaStats counts how RetimeDelta calls on one state resolved, for
// performance diagnosis: NoChange ÷ Passes is the memo hit ratio.
type DeltaStats struct {
	// Passes counts successful RetimeDelta calls.
	Passes uint64
	// NoChange counts calls whose resolved parameters matched a memo entry
	// (that entry's Result was returned directly).
	NoChange uint64
	// Record counts calls that ran the retime kernel.
	Record uint64
	// Sparse is always 0. It counted the sparse cone walks of an earlier
	// delta retimer and is kept so existing readers of the counters still
	// compile.
	Sparse uint64
}

// Stats returns the counters accumulated by this state.
func (st *DeltaState) Stats() DeltaStats { return st.stats }

// RetimeDelta re-times the skeleton under (freqs, scale), returning st's
// memoized Result when the resolved vectors equal one of the last two
// distinct vectors it retimed. The returned Result is bit-identical to
// RetimeScaled(freqs, scale, false) — including Compute, Finish and Time —
// but is owned by st: it stays valid only until the next call on the same
// state and must be copied if retained. freqs and scale follow the same
// semantics and validation as Retime/RetimeScaled (nil freqs = every rank at
// FMax, nil scale = no scaling); timelines are never recorded.
func (s *Skeleton) RetimeDelta(st *DeltaState, freqs, scale []float64) (*Result, error) {
	if err := s.checkVectors(freqs, scale); err != nil {
		return nil, err
	}
	if st.skel != s {
		st.skel = s
		st.entries[0].valid = false
		st.entries[1].valid = false
	}
	st.stats.Passes++
	for _, k := range [2]int{st.mru, 1 - st.mru} {
		if e := &st.entries[k]; e.valid && e.matches(s, freqs, scale) {
			st.mru = k
			st.stats.NoChange++
			return &e.res, nil
		}
	}
	st.mru = 1 - st.mru
	e := &st.entries[st.mru]
	e.freqs = grow(e.freqs, s.nranks)
	e.scale = grow(e.scale, s.nranks)
	for r := range e.freqs {
		e.freqs[r], e.scale[r] = s.resolved(freqs, scale, r)
	}
	s.kernel(&e.res, freqs, scale, false)
	e.valid = true
	st.stats.Record++
	return &e.res, nil
}

// resolved returns rank r's effective frequency and load scale.
func (s *Skeleton) resolved(freqs, scale []float64, r int) (f, m float64) {
	f, m = s.fmax, 1
	if freqs != nil {
		f = freqs[r]
	}
	if scale != nil {
		m = scale[r]
	}
	return f, m
}

// matches reports whether e was computed under the resolved (freqs, scale).
// Bitwise-equal parameters produce bitwise-equal results, and ±0 load
// scales — the only == floats with different bits that validation admits —
// yield identical sums, so float equality is a sound memo key.
func (e *deltaEntry) matches(s *Skeleton, freqs, scale []float64) bool {
	for r := range e.freqs {
		if f, m := s.resolved(freqs, scale, r); f != e.freqs[r] || m != e.scale[r] {
			return false
		}
	}
	return true
}
