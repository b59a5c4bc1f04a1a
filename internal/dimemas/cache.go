package dimemas

import (
	"sync"

	"repro/internal/memo"
	"repro/internal/trace"
)

// replayKey identifies one memoized recording. It carries the trace (by
// identity — traces are immutable once simulated), an optional slice
// discriminator for per-iteration recordings, and every simulation input
// the recording depends on. β is not among them: one recording serves every
// β, and at FMax every burst's slowdown β·(fmax/fmax − 1) + 1 is exactly 1,
// so a baseline has the same bits at every β.
type replayKey struct {
	tr       *trace.Trace
	slice    int // -1 for the whole trace; iteration index for slices
	fmax     float64
	platform Platform
	// machine is Machine.Fingerprint(): the canonical encoding of the
	// topology and capability layers. "" for the flat homogeneous machine,
	// so keys minted by the plain-Platform API are unchanged.
	machine string
}

// recording is the one memoized value per key: the timing skeleton and the
// two baselines retimed from it, base[0] without a timeline and base[1]
// with one. A baseline is retimed on its first read and stored only on
// success, so every later reader shares one Result and a failed retime is
// retried by the next read.
type recording struct {
	skel *Skeleton
	mu   sync.Mutex // guards base; held across a first read's retime
	base [2]*Result
}

// baseline returns the recording's baseline (nil freqs, every rank at FMax),
// retiming it on first use.
func (r *recording) baseline(timeline bool) (*Result, error) {
	i := 0
	if timeline {
		i = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.base[i] == nil {
		res, err := r.skel.Retime(nil, timeline)
		if err != nil {
			return nil, err
		}
		r.base[i] = res
	}
	return r.base[i], nil
}

// CacheStats is a point-in-time snapshot of a ReplayCache's counters;
// Entries counts recordings, one per (trace, machine, FMax).
type CacheStats = memo.Stats

// ReplayCache memoizes one recording per (trace, FMax, platform, machine):
// the frequency-independent timing skeleton, shared by every β, and the
// baseline replays (Options.Freqs == nil, every rank at FMax) retimed from
// it on first read, one without a timeline and one with. Sweeps, gear
// searches and server requests that evaluate many gear assignments over the
// same trace pay for the recording once and retime everything else. The
// baselines stay stored in the recording because serving paths read them on
// every request, and a stored read costs far less than even a
// nil-frequency retime.
//
// Cached Results and Skeletons are shared: callers must treat them as
// read-only. Keying is by trace identity, so traces must not be mutated
// after their first cached use. Safe for concurrent use; concurrent misses
// on the same key are single-flighted, and so are concurrent first reads of
// a baseline. A recording that aborts because its caller's Options.Ctx
// expired is not memoized: the entry is dropped so the next lookup records
// again instead of replaying a dead request's cancellation forever.
//
// A cache built with NewReplayCacheWithLimit evicts the least recently used
// recording once it holds more than the configured number, so long-running
// processes (e.g. the pwrsimd daemon) hold a bounded working set. An
// evicted in-flight recording still completes for the callers already
// waiting on it; later lookups simply record again.
type ReplayCache struct {
	m *memo.Cache[replayKey, *recording]
}

// NewReplayCache returns an empty, unbounded cache.
func NewReplayCache() *ReplayCache { return NewReplayCacheWithLimit(0) }

// NewReplayCacheWithLimit returns an empty cache bounded to at most
// maxEntries recordings (LRU eviction). maxEntries ≤ 0 means unbounded.
func NewReplayCacheWithLimit(maxEntries int) *ReplayCache {
	return &ReplayCache{m: memo.New[replayKey, *recording](maxEntries)}
}

// Original is ReplayMachine on the flat machine of p: with nil Freqs, the
// memoized baseline replay of t, recorded on first use.
func (c *ReplayCache) Original(t *trace.Trace, p Platform, opts Options) (*Result, error) {
	return c.ReplayMachine(t, FlatMachine(p), opts)
}

// SkeletonFor returns the memoized timing skeleton of t under opts
// (Options.Beta, Freqs and RecordTimeline are irrelevant to the key — one
// recording covers every β, gear assignment and timeline mode; the returned
// skeleton retimes at opts.Beta). A nil receiver builds an uncached
// skeleton.
func (c *ReplayCache) SkeletonFor(t *trace.Trace, p Platform, opts Options) (*Skeleton, error) {
	return c.SkeletonForSlice(t, -1, t, FlatMachine(p), opts)
}

// SkeletonForMachine is SkeletonFor on the layered machine model (keyed by
// the machine fingerprint in addition to the platform scalars).
func (c *ReplayCache) SkeletonForMachine(t *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	return c.SkeletonForSlice(t, -1, t, m, opts)
}

// SkeletonForSlice is SkeletonForMachine for a per-iteration sub-trace: sub
// must be parent.Slice(iteration, iteration+1). Keying on (parent,
// iteration) instead of the sub-trace pointer lets repeated runs over the
// same parent trace (which re-slice it every run — policy sweeps,
// benchmarks, repeated server requests) share one skeleton. Iteration -1
// with sub == parent is the whole trace.
func (c *ReplayCache) SkeletonForSlice(parent *trace.Trace, iteration int, sub *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	if c == nil {
		return BuildSkeletonMachine(sub, m, opts)
	}
	rec, err := c.record(parent, iteration, sub, m, opts)
	if err != nil {
		return nil, err
	}
	return rec.skel.withBeta(opts.Beta), nil
}

// ReplayMachine returns the replay of t under opts on the layered machine
// model, bit-identical to SimulateMachine, off the memoized recording of
// (t, m, FMax): the stored baseline when opts.Freqs is nil, a retime of the
// skeleton when per-rank frequencies are given. Machines are distinguished
// in the key by their fingerprint, so heterogeneous per-request machines
// share one cache safely. A nil receiver degrades to a plain
// SimulateMachine call, so callers can thread an optional cache without
// branching.
func (c *ReplayCache) ReplayMachine(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	if c == nil {
		return SimulateMachine(t, m, opts)
	}
	rec, err := c.record(t, -1, t, m, opts)
	if err != nil {
		return nil, err
	}
	if opts.Freqs == nil {
		return rec.baseline(opts.RecordTimeline)
	}
	return rec.skel.withBeta(opts.Beta).Retime(opts.Freqs, opts.RecordTimeline)
}

// record returns the memoized recording of build, keyed on (keyTrace,
// slice), recording it on a miss.
func (c *ReplayCache) record(keyTrace *trace.Trace, slice int, build *trace.Trace, m Machine, opts Options) (*recording, error) {
	// Validate before the lookup: a hit would otherwise retime at an
	// unchecked β, and a NaN in the key never hits, so every lookup would
	// insert an entry.
	if err := opts.validateModel(); err != nil {
		return nil, err
	}
	k := replayKey{tr: keyTrace, slice: slice, fmax: opts.FMax, platform: m.Base, machine: m.Fingerprint()}
	return c.m.Do(opts.Ctx, k, func() (*recording, error) {
		sk, err := BuildSkeletonMachine(build, m, opts)
		if err != nil {
			return nil, err
		}
		return &recording{skel: sk}, nil
	})
}

// MemoizedErrors lists the errors of every completed entry that memoized a
// failure (for tests and diagnostics — chiefly the chaos soak's cache-
// poisoning invariant: no entry may hold an injected fault or a context
// error). An entry still in flight is waited on, so a quiescing test sees
// the settled state. A failed baseline retime is never stored, so it never
// shows here.
func (c *ReplayCache) MemoizedErrors() []error {
	if c == nil {
		return nil
	}
	return c.m.Errors()
}

// Len reports the number of memoized recordings (for tests and
// diagnostics).
func (c *ReplayCache) Len() int {
	if c == nil {
		return 0
	}
	return c.m.Stats().Entries
}

// Stats snapshots the hit/miss/eviction counters. Safe on a nil receiver
// (returns zeros).
func (c *ReplayCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.m.Stats()
}
