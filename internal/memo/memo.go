// Package memo is the one single-flight memo behind the pipeline's shared
// caches: dimemas.ReplayCache (one recording per trace and machine: a
// timing skeleton and its baselines) and pwrsimd's generated-workload memo.
// A Cache computes each key once, hands the result to every concurrent
// caller, and keeps at most a bounded number of entries in
// least-recently-used order.
//
// Two error classes are never memoized, or the cache would serve one dead
// request's failure to every later caller:
//
//   - a fill aborted by a context error (IsCtxErr): the entry is evicted, a
//     waiter whose own context is done gets its own context's error, and a
//     waiter whose context is live retries — after repeated cancellations
//     by its peers it computes uncached rather than loop on them;
//   - an injected fault (internal/faults): the entry is evicted and the
//     fault is returned, so the next lookup recomputes from scratch;
//   - a fill that panics: the entry is evicted, the waiters sharing it get
//     ErrFillPanicked, and the panic continues in the goroutine that ran
//     the fill, so whatever contains panics there still sees it.
//
// Every cached fill crosses the cache.fill fault point first; the uncached
// fallback does not, as it memoizes nothing.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// ErrFillPanicked is the error (tagged with the cache stage) that callers
// sharing a fill get when that fill panicked in another goroutine.
var ErrFillPanicked = errors.New("memo: fill panicked")

// maxPeerCancellations is how many fills in a row a live waiter watches its
// peers' contexts abort before it computes uncached.
const maxPeerCancellations = 3

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	// Hits counts lookups that found a memoized (or in-flight) entry.
	Hits int64
	// Misses counts lookups that had to start a fresh computation.
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the current number of memoized entries.
	Entries int
}

// entry single-flights one fill. It carries its key so eviction from the
// LRU list can also delete the map slot.
type entry[K comparable, V any] struct {
	key  K
	once sync.Once
	v    V
	err  error
}

// Cache memoizes V by K. Safe for concurrent use. An evicted in-flight entry
// still completes for the callers already waiting on it; later lookups
// simply recompute it.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	max       int // 0 means unbounded
	m         map[K]*list.Element
	lru       *list.List // front = most recently used; values are *entry
	hits      int64
	misses    int64
	evictions int64
}

// New returns an empty cache bounded to at most maxEntries entries (LRU
// eviction); maxEntries ≤ 0 means unbounded.
func New[K comparable, V any](maxEntries int) *Cache[K, V] {
	return &Cache[K, V]{max: max(maxEntries, 0), m: make(map[K]*list.Element), lru: list.New()}
}

// Do returns the value memoized under k, running fill to compute it on a
// miss; concurrent misses on k share one fill. ctx is the caller's own
// context (nil means never done) and only decides what happens after a fill
// aborted by a context error: see the package comment.
func (c *Cache[K, V]) Do(ctx context.Context, k K, fill func() (V, error)) (V, error) {
	for attempt := 1; ; attempt++ {
		e := c.entryFor(k)
		e.once.Do(func() {
			// sync.Once counts a panicking call as done, so without this
			// the entry would stay memoized as (zero value, nil error).
			defer func() {
				if p := recover(); p != nil {
					e.err = stagerr.Wrap(stagerr.Cache, ErrFillPanicked)
					c.evict(e)
					panic(p)
				}
			}()
			if err := faults.Check(faults.CacheFill); err != nil {
				e.err = stagerr.Wrap(stagerr.Cache, err)
				return
			}
			e.v, e.err = fill()
		})
		injected := faults.IsInjected(e.err)
		if e.err == nil || !injected && !IsCtxErr(e.err) {
			return e.v, e.err
		}
		c.evict(e)
		if injected {
			return e.v, e.err
		}
		if ctx != nil && ctx.Err() != nil {
			var zero V
			return zero, ctx.Err()
		}
		if attempt == maxPeerCancellations {
			return fill()
		}
	}
}

// entryFor returns the entry for k, inserting (and possibly LRU-evicting)
// under the lock.
func (c *Cache[K, V]) entryFor(k K) *entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*entry[K, V])
	}
	c.misses++
	e := &entry[K, V]{key: k}
	c.m[k] = c.lru.PushFront(e)
	if c.max > 0 && c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*entry[K, V]).key)
		c.evictions++
	}
	return e
}

// evict drops e if it is still the entry memoized under its key.
func (c *Cache[K, V]) evict(e *entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok && el.Value == e {
		c.lru.Remove(el)
		delete(c.m, e.key)
	}
}

// Errors lists the error of every memoized entry that holds a failure. An
// entry still in flight is waited on, so a quiescing caller sees the
// settled state.
func (c *Cache[K, V]) Errors() []error {
	c.mu.Lock()
	entries := make([]*entry[K, V], 0, len(c.m))
	for _, el := range c.m {
		entries = append(entries, el.Value.(*entry[K, V]))
	}
	c.mu.Unlock()
	var errs []error
	for _, e := range entries {
		// once.Do on a completed entry is an immediate no-op that also
		// publishes e.err; on an in-flight one it waits for the fill.
		e.once.Do(func() {})
		if e.err != nil {
			errs = append(errs, e.err)
		}
	}
	return errs
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.m)}
}

// IsCtxErr reports whether err is (or wraps) a context cancellation or
// deadline: the error class a fill aborted by its caller's context returns.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
