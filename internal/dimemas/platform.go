// Package dimemas is a deterministic replay simulator for message-passing
// traces on a configurable parallel platform, playing the role Dimemas plays
// in the paper's methodology (§4): given a trace whose computation bursts
// have been rescaled for per-process DVFS frequencies, it produces the
// execution time of the whole application and per-rank compute/communication
// breakdowns.
//
// The platform model is the classic latency/bandwidth (Hockney) one that
// Dimemas uses: a point-to-point message of b bytes costs L + b/BW on the
// wire, small messages travel eagerly (the sender does not block), large
// messages use a rendezvous protocol (the transfer cannot start before the
// receiver posts the matching receive), and collectives cost a logarithmic
// or linear number of such stages depending on the operation.
package dimemas

import (
	"math"
	"math/bits"

	"repro/internal/stagerr"

	"repro/internal/trace"
)

// Platform describes the simulated machine's communication capabilities.
type Platform struct {
	// Latency is the end-to-end latency of one message, in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
	// EagerLimit is the largest message size (bytes) sent eagerly; larger
	// messages use the rendezvous protocol.
	EagerLimit int64
	// Overhead is the CPU time a rank spends injecting or retiring one
	// point-to-point operation (seconds). It is charged to communication
	// time, not computation.
	Overhead float64
	// LinearAllToAll selects the linear (P−1 stages) model for all-to-all
	// and all-gather; when false a log₂ P model is used for them too
	// (ablation knob, the default matches Dimemas' linear exchange).
	LinearAllToAll bool
}

// DefaultPlatform returns Myrinet-class parameters matching the paper's
// PowerPC/Myrinet cluster era: 7 µs latency, 250 MB/s bandwidth, 32 KiB
// eager limit, 1 µs per-call CPU overhead.
func DefaultPlatform() Platform {
	return Platform{
		Latency:        7e-6,
		Bandwidth:      250e6,
		EagerLimit:     32 << 10,
		Overhead:       1e-6,
		LinearAllToAll: true,
	}
}

// Validate checks the platform parameters.
func (p Platform) Validate() error {
	if p.Latency < 0 || math.IsNaN(p.Latency) {
		return stagerr.Errorf(stagerr.Validate, "dimemas: negative latency %v", p.Latency)
	}
	if p.Bandwidth <= 0 || math.IsNaN(p.Bandwidth) {
		return stagerr.Errorf(stagerr.Validate, "dimemas: bandwidth must be positive, got %v", p.Bandwidth)
	}
	if p.EagerLimit < 0 {
		return stagerr.Errorf(stagerr.Validate, "dimemas: negative eager limit %d", p.EagerLimit)
	}
	if p.Overhead < 0 || math.IsNaN(p.Overhead) {
		return stagerr.Errorf(stagerr.Validate, "dimemas: invalid overhead %v", p.Overhead)
	}
	return nil
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// CollectiveCost returns the modeled duration of a collective over n ranks
// with a per-rank payload of b bytes, measured from the moment the last rank
// arrives.
func (p Platform) CollectiveCost(c trace.Collective, b int64, n int) float64 {
	return collCost(c, b, n, p.Latency, p.Bandwidth, p.LinearAllToAll)
}

// collCost is the collective model over one latency/bandwidth pair. Shared
// by the flat Platform path and the topology-aware Machine path (which feeds
// it the slowest link the collective's spanning tree crosses) so both price
// a collective with the identical arithmetic.
func collCost(c trace.Collective, b int64, n int, lat, bw float64, linear bool) float64 {
	if n <= 1 {
		return 0
	}
	stages := float64(ceilLog2(n))
	step := lat + float64(b)/bw
	switch c {
	case trace.CollBarrier:
		return stages * lat
	case trace.CollBcast, trace.CollReduce:
		return stages * step
	case trace.CollAllReduce:
		// Reduce followed by broadcast.
		return 2 * stages * step
	case trace.CollAllGather, trace.CollAllToAll:
		if linear {
			return float64(n-1) * step
		}
		return stages * step
	default:
		return stages * step
	}
}
