// Package faults is a deterministic, seeded fault-injection registry for
// chaos-testing the pipeline. Injection sites call Check(point); when no
// registry is enabled that costs one atomic pointer load and returns nil,
// so production binaries pay nothing unless fault injection is switched on
// explicitly (pwrsimd's -fault-seed/-fault-rate flags, or Enable in tests).
//
// Whether a given check fires is a pure function of (seed, point, check
// index): splitmix64(seed ^ fnv(point) ^ n) selects one check in every
// `rate`, so a soak run with a fixed seed injects a reproducible fault
// pattern per point regardless of wall-clock timing. Injected errors wrap
// ErrInjected; consumers that must never persist a transient fault (the
// replay cache, most importantly) detect them with IsInjected.
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Point names one injection site in the pipeline.
type Point string

// The injection sites wired into the pipeline.
const (
	// CacheFill fires inside every cached internal/memo fill: the replay
	// cache and pwrsimd's generated-workload memo.
	CacheFill Point = "cache.fill"
	// SkeletonBuild fires at timing-skeleton construction.
	SkeletonBuild Point = "skeleton.build"
	// Retime fires at skeleton retiming (the per-candidate hot path).
	Retime Point = "retime"
	// TraceParse fires at trace text parsing.
	TraceParse Point = "trace.parse"
	// HandlerIO fires at server request-body decoding.
	HandlerIO Point = "handler.io"
)

// Points lists every injection site (for CLI validation and tests).
func Points() []Point {
	return []Point{CacheFill, SkeletonBuild, Retime, TraceParse, HandlerIO}
}

// ErrInjected is the sentinel wrapped by every injected fault.
var ErrInjected = errors.New("injected fault")

// InjectedError is one fired fault: which point, and the 1-based check
// index at that point that fired (the reproducible coordinate of the
// fault, given the registry's seed).
type InjectedError struct {
	Point Point
	N     uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("%s: %v (check %d)", e.Point, ErrInjected, e.N)
}

func (e *InjectedError) Unwrap() error { return ErrInjected }

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// PointStats counts one point's activity.
type PointStats struct {
	// Checks is how many times the point was crossed.
	Checks uint64
	// Fired is how many of those checks injected a fault.
	Fired uint64
}

type pointState struct {
	rate   uint64
	checks atomic.Uint64
	fired  atomic.Uint64
}

// Registry decides which checks fire. It is immutable after construction
// (only its counters move) and safe for concurrent use.
type Registry struct {
	seed   uint64
	points map[Point]*pointState
}

// NewRegistry builds a registry that fires one check in every rates[p] at
// point p, deterministically given seed. Points absent from rates (or with
// rate 0) never fire. rate 1 fires every check.
func NewRegistry(seed uint64, rates map[Point]uint64) *Registry {
	r := &Registry{seed: seed, points: make(map[Point]*pointState, len(rates))}
	for p, rate := range rates {
		r.points[p] = &pointState{rate: rate}
	}
	return r
}

// Stats snapshots every configured point's counters.
func (r *Registry) Stats() map[Point]PointStats {
	out := make(map[Point]PointStats, len(r.points))
	for p, st := range r.points {
		out[p] = PointStats{Checks: st.checks.Load(), Fired: st.fired.Load()}
	}
	return out
}

// Fired sums injected faults across every point.
func (r *Registry) Fired() uint64 {
	var n uint64
	for _, st := range r.points {
		n += st.fired.Load()
	}
	return n
}

// active is the process-global registry; nil means injection is disabled
// and Check is a single atomic load.
var active atomic.Pointer[Registry]

// Enable installs r as the process-global registry. Tests must pair it
// with Disable (t.Cleanup(faults.Disable)).
func Enable(r *Registry) { active.Store(r) }

// Disable switches fault injection off.
func Disable() { active.Store(nil) }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Check is the injection-site hook: nil almost always, an *InjectedError
// when the active registry decides this crossing of p fires.
func Check(p Point) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.check(p)
}

func (r *Registry) check(p Point) error {
	st := r.points[p]
	if st == nil || st.rate == 0 {
		return nil
	}
	n := st.checks.Add(1)
	if splitmix64(r.seed^fnv64(string(p))^n)%st.rate != 0 {
		return nil
	}
	st.fired.Add(1)
	return &InjectedError{Point: p, N: n}
}

// splitmix64 is the standard 64-bit finalizer; it decorrelates the
// (seed, point, index) coordinate so firing indices are spread uniformly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a, inlined to keep the hot path allocation-free.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
