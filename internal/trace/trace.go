// Package trace defines the message-passing execution traces that drive the
// simulation pipeline.
//
// The paper captures Paraver traces of real runs, cuts out one period of the
// iterative behaviour, and translates them to Dimemas tracefiles. This
// package is the equivalent substrate: a trace is a per-rank sequence of
// records — computation bursts, point-to-point sends/receives, collective
// operations and iteration markers — together with serialization, validation
// and region-extraction utilities.
package trace

import (
	"errors"
	"fmt"
	"sync"
)

// Kind enumerates trace record types.
type Kind uint8

const (
	// KindCompute is a CPU burst; Duration is its length in seconds when
	// running at the nominal top frequency.
	KindCompute Kind = iota
	// KindSend is a blocking point-to-point send to Peer.
	KindSend
	// KindRecv is a blocking point-to-point receive from Peer.
	KindRecv
	// KindColl is a collective operation over all ranks.
	KindColl
	// KindIterMark separates iterations of the application's outer loop;
	// it consumes no simulated time.
	KindIterMark
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindColl:
		return "coll"
	case KindIterMark:
		return "iter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Collective enumerates the collective operations the simulator models.
type Collective uint8

const (
	CollBarrier Collective = iota
	CollBcast
	CollReduce
	CollAllReduce
	CollAllGather
	CollAllToAll
	collMax // sentinel for validation
)

func (c Collective) String() string {
	switch c {
	case CollBarrier:
		return "barrier"
	case CollBcast:
		return "bcast"
	case CollReduce:
		return "reduce"
	case CollAllReduce:
		return "allreduce"
	case CollAllGather:
		return "allgather"
	case CollAllToAll:
		return "alltoall"
	default:
		return fmt.Sprintf("Collective(%d)", int(c))
	}
}

// ParseCollective is the inverse of Collective.String.
func ParseCollective(s string) (Collective, error) {
	for c := CollBarrier; c < collMax; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown collective %q", s)
}

// Record is one event in a rank's timeline. Fields are used depending on
// Kind; unused fields are zero.
type Record struct {
	Kind     Kind
	Duration float64    // KindCompute: seconds at nominal top frequency
	Beta     float64    // KindCompute: memory-boundedness override; <0 ⇒ use the run's global β
	Peer     int        // KindSend/KindRecv: the other rank
	Bytes    int64      // KindSend/KindRecv/KindColl: message or per-rank payload size
	Tag      int        // KindSend/KindRecv: match tag
	Coll     Collective // KindColl
}

// Compute returns a computation record that uses the run's global β.
func Compute(seconds float64) Record {
	return Record{Kind: KindCompute, Duration: seconds, Beta: -1}
}

// ComputeBeta returns a computation record with an explicit β override.
func ComputeBeta(seconds, beta float64) Record {
	return Record{Kind: KindCompute, Duration: seconds, Beta: beta}
}

// Send returns a point-to-point send record.
func Send(peer int, bytes int64, tag int) Record {
	return Record{Kind: KindSend, Peer: peer, Bytes: bytes, Tag: tag}
}

// Recv returns a point-to-point receive record.
func Recv(peer int, bytes int64, tag int) Record {
	return Record{Kind: KindRecv, Peer: peer, Bytes: bytes, Tag: tag}
}

// Coll returns a collective record; bytes is the per-rank payload.
func Coll(c Collective, bytes int64) Record {
	return Record{Kind: KindColl, Coll: c, Bytes: bytes}
}

// IterMark returns an iteration boundary marker.
func IterMark() Record { return Record{Kind: KindIterMark} }

// Trace is a complete message-passing execution trace.
//
// A trace must be treated as immutable once it has been replayed: the
// simulator validates it and derives its channel index on first use and
// caches both on the trace. Appending records via Add invalidates the cache
// (the record count changes), but editing records in place after a replay
// is not detected and yields stale, silently wrong replays — build a new
// trace (or use ScaleCompute/ScaleComputePhased/Slice, which copy) instead.
//
// One in-place edit is sound and sanctioned: workload.Generate rewrites
// only the message sizes of a trace it alone holds between the replays of
// its calibration. The cached index depends only on structure (channels,
// collective counts, send slots), and the byte checks in its cached Match
// verdict (non-negative sizes, equal sizes at both ends of a message and
// across a collective) hold at every size it writes, because both ends of
// a message take their size from the same base. The trace it returns is a
// fresh copy.
type Trace struct {
	// App names the traced application instance, e.g. "BT-MZ-32".
	App string
	// Ranks holds one record sequence per MPI rank.
	Ranks [][]Record

	// The replay engine precomputes an index (channel tables, validation)
	// the first time a trace is simulated and reuses it for every later
	// replay of the same records; see ReplayIndex.
	replayMu  sync.Mutex
	replayIdx any
	replayCnt int
}

// New returns an empty trace for nranks ranks.
func New(app string, nranks int) *Trace {
	return &Trace{App: app, Ranks: make([][]Record, nranks)}
}

// NumRanks returns the number of ranks in the trace.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// Add appends records to one rank's timeline. Appending after a replay is
// allowed (the cached replay index is rebuilt), but in-place edits of
// existing records are not — see the Trace immutability note.
func (t *Trace) Add(rank int, recs ...Record) {
	t.Ranks[rank] = append(t.Ranks[rank], recs...)
}

// ReplayIndex returns the per-trace value built by build on first use,
// caching it for subsequent calls. It exists for the replay engine, which
// derives channel tables and arena sizes from the records once and reuses
// them across every replay of the same trace. The cache is invalidated when
// the total record count changes (records were added after the first
// replay); beyond that the trace must be treated as immutable once
// simulated. Safe for concurrent use; build runs at most once per cached
// generation.
func (t *Trace) ReplayIndex(build func(*Trace) any) any {
	t.replayMu.Lock()
	defer t.replayMu.Unlock()
	if n := t.NumRecords(); t.replayIdx == nil || t.replayCnt != n {
		t.replayIdx = build(t)
		t.replayCnt = n
	}
	return t.replayIdx
}

// NumRecords returns the total record count across all ranks.
func (t *Trace) NumRecords() int {
	n := 0
	for _, rs := range t.Ranks {
		n += len(rs)
	}
	return n
}

// ComputeTimes returns each rank's total computation time at the nominal
// frequency — the input of the load-balancing algorithms and of eq. 4.
func (t *Trace) ComputeTimes() []float64 {
	out := make([]float64, len(t.Ranks))
	for r, recs := range t.Ranks {
		for _, rec := range recs {
			if rec.Kind == KindCompute {
				out[r] += rec.Duration
			}
		}
	}
	return out
}

// Iterations returns the minimum number of iteration markers across ranks
// (0 if any rank carries none).
func (t *Trace) Iterations() int {
	min := -1
	for _, recs := range t.Ranks {
		n := 0
		for _, rec := range recs {
			if rec.Kind == KindIterMark {
				n++
			}
		}
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// Slice returns a new trace containing only iterations [from, to) of every
// rank, where an iteration is the records up to and including its closing
// IterMark. This mirrors the paper's Paraver region extraction (discarding
// initialization). Ranks must carry at least `to` markers.
func (t *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to <= from {
		return nil, fmt.Errorf("trace: invalid iteration range [%d, %d)", from, to)
	}
	out := New(fmt.Sprintf("%s[it%d:%d]", t.App, from, to), len(t.Ranks))
	for r, recs := range t.Ranks {
		iter := 0
		for _, rec := range recs {
			if iter >= from && iter < to {
				out.Ranks[r] = append(out.Ranks[r], rec)
			}
			if rec.Kind == KindIterMark {
				iter++
			}
		}
		if iter < to {
			return nil, fmt.Errorf("trace: rank %d has only %d iterations, need %d", r, iter, to)
		}
	}
	return out, nil
}

// ScaleCompute returns a copy of the trace with every computation duration of
// rank r multiplied by factor(r, record). It mirrors the paper's rewriting of
// Dimemas tracefiles after frequency assignment; communication records are
// untouched because communication does not scale with CPU frequency.
func (t *Trace) ScaleCompute(factor func(rank int, rec Record) float64) *Trace {
	out := New(t.App, len(t.Ranks))
	for r, recs := range t.Ranks {
		out.Ranks[r] = make([]Record, len(recs))
		copy(out.Ranks[r], recs)
		for i, rec := range out.Ranks[r] {
			if rec.Kind == KindCompute {
				rec.Duration *= factor(r, rec)
				out.Ranks[r][i] = rec
			}
		}
	}
	return out
}

// ScaleComputePhased returns a copy of the trace with every computation
// duration multiplied by factor(rank, phase), where phase is the index of
// the compute record within its iteration (reset at every IterMark). It
// supports per-phase DVFS studies: applications like PEPC run several
// computation phases per iteration that need different gears.
func (t *Trace) ScaleComputePhased(factor func(rank, phase int) float64) *Trace {
	out := New(t.App, len(t.Ranks))
	for r, recs := range t.Ranks {
		out.Ranks[r] = make([]Record, len(recs))
		copy(out.Ranks[r], recs)
		phase := 0
		for i, rec := range out.Ranks[r] {
			switch rec.Kind {
			case KindCompute:
				rec.Duration *= factor(r, phase)
				out.Ranks[r][i] = rec
				phase++
			case KindIterMark:
				phase = 0
			}
		}
	}
	return out
}

// PhaseComputeTimes returns per-phase per-rank total computation times,
// where a phase is the position of a compute record within its iteration.
// The result is indexed [phase][rank]. Ranks with fewer compute records in
// some iteration simply contribute nothing to the missing phases.
func (t *Trace) PhaseComputeTimes() [][]float64 {
	var phases [][]float64
	for r, recs := range t.Ranks {
		phase := 0
		for _, rec := range recs {
			switch rec.Kind {
			case KindCompute:
				for len(phases) <= phase {
					phases = append(phases, make([]float64, len(t.Ranks)))
				}
				phases[phase][r] += rec.Duration
				phase++
			case KindIterMark:
				phase = 0
			}
		}
	}
	return phases
}

// Validation errors.
var (
	ErrNoRanks         = errors.New("trace: no ranks")
	ErrBadPeer         = errors.New("trace: peer rank out of range")
	ErrSelfMessage     = errors.New("trace: send/recv to self")
	ErrNegativeBurst   = errors.New("trace: compute duration must be finite and non-negative")
	ErrBadBetaOverride = errors.New("trace: compute beta override must not be NaN or +Inf")
	ErrNegativeSize    = errors.New("trace: negative message size")
	ErrUnmatchedP2P    = errors.New("trace: unmatched point-to-point records")
	ErrCollMismatch    = errors.New("trace: collective sequences differ between ranks")
)

// Validate checks structural well-formedness: peers in range, non-negative
// durations/sizes, every send matched by exactly one receive (same pair of
// ranks, same tag, same byte count, same order) and identical collective
// sequences on every rank (same operation and same per-rank payload — the
// modeled cost of a collective must not depend on which rank happens to
// arrive last). A valid trace is guaranteed to replay without
// deadlock under blocking semantics as long as sends/recvs are causally
// orderable; the simulator additionally detects runtime deadlock.
//
// Validate is Match without its channel table; see Match for the order in
// which failures are reported.
func (t *Trace) Validate() error {
	_, err := t.Match()
	return err
}
