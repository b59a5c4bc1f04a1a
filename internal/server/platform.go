package server

import (
	"repro/internal/dimemas"
	"repro/internal/stagerr"
)

// LinkSpec is one interconnect level on the wire: a latency/bandwidth pair
// in the same units as the flat platform's (seconds, bytes per second).
type LinkSpec struct {
	Latency   float64 `json:"latency"`
	Bandwidth float64 `json:"bandwidth"`
}

func (l LinkSpec) link() dimemas.Link {
	return dimemas.Link{Latency: l.Latency, Bandwidth: l.Bandwidth}
}

// TopologySpec describes the node/switch hierarchy of a request's machine.
// Exactly one of Placement (an explicit rank→node vector) or PerNode (the
// contiguous block placement with that many ranks per node) selects where
// ranks live.
type TopologySpec struct {
	// Placement maps rank → node; its length must equal the trace's rank
	// count. Mutually exclusive with PerNode.
	Placement []int `json:"placement,omitempty"`
	// PerNode derives the block placement rank r → node r/PerNode.
	PerNode int `json:"per_node,omitempty"`
	// NodeSwitch maps node → switch; omitted means a single switch.
	NodeSwitch []int `json:"node_switch,omitempty"`
	// Intra and Inter are the same-node and same-switch links (required).
	Intra LinkSpec `json:"intra"`
	Inter LinkSpec `json:"inter"`
	// Remote is the cross-switch link, required when NodeSwitch is present.
	Remote *LinkSpec `json:"remote,omitempty"`
}

// CapabilitySpec describes per-rank heterogeneity on the wire. Each slice is
// indexed by rank; an omitted slice means homogeneous in that dimension.
type CapabilitySpec struct {
	// Efficiency is relative compute speed (1 = nominal).
	Efficiency []float64 `json:"efficiency,omitempty"`
	// FMax is the per-rank top frequency in GHz (0 = the global FMax).
	FMax []float64 `json:"fmax,omitempty"`
	// PowerScale multiplies the rank's modeled power draw (1 = nominal).
	PowerScale []float64 `json:"power_scale,omitempty"`
}

// PlatformSpec lets one request override the daemon's machine model: the
// flat link scalars, a topology layer, a capability layer, or any mix.
// Omitted scalars inherit the daemon's configured platform, so a request can
// e.g. slow just the bandwidth, or add a topology over the default link
// constants. An absent spec is the daemon's flat platform unchanged — the
// path that stays bit-identical to the pre-machine wire behavior.
type PlatformSpec struct {
	Latency    *float64        `json:"latency,omitempty"`
	Bandwidth  *float64        `json:"bandwidth,omitempty"`
	EagerLimit *int64          `json:"eager_limit,omitempty"`
	Overhead   *float64        `json:"overhead,omitempty"`
	Topology   *TopologySpec   `json:"topology,omitempty"`
	Capability *CapabilitySpec `json:"capability,omitempty"`
}

// resolve builds the effective base platform and the optional layered
// machine of a request for an nranks-rank trace. The machine pointer is nil
// when the spec carries no topology/capability layer — handlers then run
// the flat pipeline (possibly with overridden scalars), keeping the
// homogeneous fast path and its cache keys. Validation happens here, so a
// bad spec fails with a validate-stage error before any simulation starts.
func (p *PlatformSpec) resolve(base dimemas.Platform, nranks int) (dimemas.Platform, *dimemas.Machine, error) {
	eff := base
	if p == nil {
		return eff, nil, nil
	}
	if p.Latency != nil {
		eff.Latency = *p.Latency
	}
	if p.Bandwidth != nil {
		eff.Bandwidth = *p.Bandwidth
	}
	if p.EagerLimit != nil {
		eff.EagerLimit = *p.EagerLimit
	}
	if p.Overhead != nil {
		eff.Overhead = *p.Overhead
	}
	if p.Topology == nil && p.Capability == nil {
		if err := eff.Validate(); err != nil {
			return eff, nil, err
		}
		return eff, nil, nil
	}
	m := &dimemas.Machine{Base: eff}
	if t := p.Topology; t != nil {
		pl := t.Placement
		if t.PerNode != 0 {
			if t.PerNode < 0 {
				return eff, nil, stagerr.Errorf(stagerr.Validate, "platform: per_node must be positive, got %d", t.PerNode)
			}
			if len(pl) != 0 {
				return eff, nil, stagerr.New(stagerr.Validate, "platform: placement and per_node are mutually exclusive")
			}
			pl = dimemas.BlockPlacement(nranks, t.PerNode)
		}
		topo := &dimemas.Topology{
			Placement:  pl,
			NodeSwitch: t.NodeSwitch,
			Intra:      t.Intra.link(),
			Inter:      t.Inter.link(),
		}
		if t.Remote != nil {
			topo.Remote = t.Remote.link()
		} else if t.NodeSwitch != nil {
			return eff, nil, stagerr.New(stagerr.Validate, "platform: node_switch requires a remote link")
		}
		m.Topo = topo
	}
	if c := p.Capability; c != nil {
		m.Cap = &dimemas.Capability{
			Efficiency: c.Efficiency,
			FMax:       c.FMax,
			PowerScale: c.PowerScale,
		}
	}
	if err := m.ValidateFor(nranks); err != nil {
		return eff, nil, err
	}
	return eff, m, nil
}

// machineFor is resolve flattened to a value machine, for call sites that
// replay directly (the replay handler) rather than passing an optional
// layered machine into a pipeline config.
func (p *PlatformSpec) machineFor(base dimemas.Platform, nranks int) (dimemas.Machine, error) {
	eff, m, err := p.resolve(base, nranks)
	if err != nil {
		return dimemas.Machine{}, err
	}
	return dimemas.ResolveMachine(eff, m, nranks)
}

// PlatformBody echoes the daemon's configured flat platform in /healthz, so
// operators can confirm which machine constants an instance is serving.
type PlatformBody struct {
	Latency        float64 `json:"latency"`
	Bandwidth      float64 `json:"bandwidth"`
	EagerLimit     int64   `json:"eager_limit"`
	Overhead       float64 `json:"overhead"`
	LinearAllToAll bool    `json:"linear_all_to_all"`
}

// NewPlatformBody builds the wire echo of a platform.
func NewPlatformBody(p dimemas.Platform) PlatformBody {
	return PlatformBody{
		Latency:        p.Latency,
		Bandwidth:      p.Bandwidth,
		EagerLimit:     p.EagerLimit,
		Overhead:       p.Overhead,
		LinearAllToAll: p.LinearAllToAll,
	}
}
