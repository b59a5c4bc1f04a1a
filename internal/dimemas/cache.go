package dimemas

import (
	"repro/internal/memo"
	"repro/internal/trace"
)

// replayKey identifies one memoized artifact: a baseline (all-ranks-at-FMax)
// replay or a timing skeleton. It carries the trace (by identity — traces
// are immutable once simulated), an optional slice discriminator for
// per-iteration replays, and every simulation input the artifact depends on.
// Neither artifact depends on β: one recording serves every β, and at FMax
// every burst's slowdown β·(fmax/fmax − 1) + 1 is exactly 1, so a baseline
// has the same bits at every β.
type replayKey struct {
	tr       *trace.Trace
	slice    int // -1 for the whole trace; iteration index for slices
	fmax     float64
	platform Platform
	// machine is Machine.Fingerprint(): the canonical encoding of the
	// topology and capability layers. "" for the flat homogeneous machine,
	// so keys minted by the plain-Platform API are unchanged.
	machine  string
	timeline bool
	skeleton bool // true for timing-skeleton entries (timeline is false)
}

// artifact is one memoized value: a baseline Result or a timing Skeleton,
// depending on the key.
type artifact struct {
	res  *Result
	skel *Skeleton
}

// CacheStats is a point-in-time snapshot of a ReplayCache's counters;
// Entries counts replays plus skeletons.
type CacheStats = memo.Stats

// ReplayCache memoizes the two per-trace artifacts every analysis pipeline
// re-derives — the frequency-independent timing skeleton and the baseline
// replay (Options.Freqs == nil, every rank at FMax), both keyed by (trace,
// FMax, platform) and shared by every β; the baseline is filled by retiming
// the skeleton. Sweeps, gear searches and server requests that evaluate
// many gear assignments over the same trace pay for the recording once and
// retime everything else. Baselines stay memoized beside the
// skeleton because serving paths read them on every request, and a memo
// hit costs far less than even a nil-frequency retime.
//
// Cached Results and Skeletons are shared: callers must treat them as
// read-only. Keying is by trace identity, so traces must not be mutated
// after their first cached use. Safe for concurrent use; concurrent misses
// on the same key are single-flighted. A computation that aborts because
// its caller's Options.Ctx expired is not memoized: the entry is dropped so
// the next lookup recomputes instead of replaying a dead request's
// cancellation forever.
//
// A cache built with NewReplayCacheWithLimit evicts the least recently used
// entry once it holds more than the configured number, so long-running
// processes (e.g. the pwrsimd daemon) hold a bounded working set. An
// evicted in-flight entry still completes for the callers already waiting
// on it; later lookups simply recompute it.
type ReplayCache struct {
	m *memo.Cache[replayKey, artifact]
}

// NewReplayCache returns an empty, unbounded cache.
func NewReplayCache() *ReplayCache { return NewReplayCacheWithLimit(0) }

// NewReplayCacheWithLimit returns an empty cache bounded to at most
// maxEntries memoized entries (LRU eviction). maxEntries ≤ 0 means
// unbounded.
func NewReplayCacheWithLimit(maxEntries int) *ReplayCache {
	return &ReplayCache{m: memo.New[replayKey, artifact](maxEntries)}
}

// Original returns the memoized baseline replay of t under opts, simulating
// it on first use. A nil receiver, or options carrying explicit per-rank
// frequencies (which the cache does not index), degrade to a plain
// uncached Simulate call, so callers can thread an optional cache without
// branching.
func (c *ReplayCache) Original(t *trace.Trace, p Platform, opts Options) (*Result, error) {
	return c.original(t, FlatMachine(p), opts)
}

// OriginalMachine is Original on the layered machine model; machines are
// distinguished in the key by their fingerprint, so heterogeneous
// per-request machines share one cache safely.
func (c *ReplayCache) OriginalMachine(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	return c.original(t, m, opts)
}

// SkeletonFor returns the memoized timing skeleton of t under opts
// (Options.Beta, Freqs and RecordTimeline are irrelevant to the key — one
// recording covers every β, gear assignment and timeline mode; the returned
// skeleton retimes at opts.Beta). A nil receiver builds an uncached
// skeleton.
func (c *ReplayCache) SkeletonFor(t *trace.Trace, p Platform, opts Options) (*Skeleton, error) {
	return c.skeleton(t, -1, t, FlatMachine(p), opts)
}

// SkeletonForMachine is SkeletonFor on the layered machine model (keyed by
// the machine fingerprint in addition to the platform scalars).
func (c *ReplayCache) SkeletonForMachine(t *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	return c.skeleton(t, -1, t, m, opts)
}

// SkeletonForSliceMachine is SkeletonForSlice on the layered machine model.
func (c *ReplayCache) SkeletonForSliceMachine(parent *trace.Trace, iteration int, sub *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	return c.skeleton(parent, iteration, sub, m, opts)
}

// SkeletonForSlice is SkeletonFor for a per-iteration sub-trace: sub must be
// parent.Slice(iteration, iteration+1). Keying on (parent, iteration)
// instead of the sub-trace pointer lets repeated runs over the same parent
// trace (which re-slice it every run — policy sweeps, benchmarks, repeated
// server requests) share one skeleton.
func (c *ReplayCache) SkeletonForSlice(parent *trace.Trace, iteration int, sub *trace.Trace, p Platform, opts Options) (*Skeleton, error) {
	return c.skeleton(parent, iteration, sub, FlatMachine(p), opts)
}

func (c *ReplayCache) skeleton(keyTrace *trace.Trace, slice int, build *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	if c == nil {
		return BuildSkeletonMachine(build, m, opts)
	}
	// Validate before the lookup: a hit would otherwise retime at an
	// unchecked β, and a NaN in the key never hits, so every lookup would
	// insert an entry.
	if err := opts.validateModel(); err != nil {
		return nil, err
	}
	k := replayKey{
		tr:       keyTrace,
		slice:    slice,
		fmax:     opts.FMax,
		platform: m.Base,
		machine:  m.Fingerprint(),
		skeleton: true,
	}
	a, err := c.m.Do(opts.Ctx, k, func() (artifact, error) {
		sk, err := BuildSkeletonMachine(build, m, opts)
		return artifact{skel: sk}, err
	})
	if err != nil {
		return nil, err
	}
	return a.skel.withBeta(opts.Beta), nil
}

// Replay returns the replay of t under opts: the memoized baseline when
// opts.Freqs is nil, and a skeleton retiming — bit-identical to Simulate
// but an order of magnitude cheaper — when per-rank frequencies are given.
// A nil receiver degrades to a plain Simulate call.
func (c *ReplayCache) Replay(t *trace.Trace, p Platform, opts Options) (*Result, error) {
	return c.ReplayMachine(t, FlatMachine(p), opts)
}

// ReplayMachine is Replay on the layered machine model: the memoized
// machine baseline for nil Freqs, a machine-skeleton retiming otherwise.
func (c *ReplayCache) ReplayMachine(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	if opts.Freqs == nil {
		return c.OriginalMachine(t, m, opts)
	}
	if c == nil {
		return SimulateMachine(t, m, opts)
	}
	sk, err := c.SkeletonForMachine(t, m, opts)
	if err != nil {
		return nil, err
	}
	return sk.Retime(opts.Freqs, opts.RecordTimeline)
}

// original fills a baseline by retiming the skeleton of the same key. The
// order is always baseline → skeleton, never the reverse, so the nested
// single-flight cannot deadlock.
func (c *ReplayCache) original(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	if c == nil || opts.Freqs != nil {
		return SimulateMachine(t, m, opts)
	}
	if err := opts.validateModel(); err != nil {
		return nil, err
	}
	k := replayKey{
		tr:       t,
		slice:    -1,
		fmax:     opts.FMax,
		platform: m.Base,
		machine:  m.Fingerprint(),
		timeline: opts.RecordTimeline,
	}
	a, err := c.m.Do(opts.Ctx, k, func() (artifact, error) {
		sk, err := c.skeleton(t, -1, t, m, opts)
		if err != nil {
			return artifact{}, err
		}
		res, err := sk.Retime(nil, opts.RecordTimeline)
		return artifact{res: res}, err
	})
	return a.res, err
}

// MemoizedErrors lists the errors of every completed entry that memoized a
// failure (for tests and diagnostics — chiefly the chaos soak's cache-
// poisoning invariant: no entry may hold an injected fault or a context
// error). An entry still in flight is waited on, so a quiescing test sees
// the settled state.
func (c *ReplayCache) MemoizedErrors() []error {
	if c == nil {
		return nil
	}
	return c.m.Errors()
}

// Len reports the number of memoized entries (for tests and diagnostics).
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
