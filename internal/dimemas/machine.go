package dimemas

// The layered machine model. Platform keeps the five global scalars the
// paper's flat Hockney machine needs; Machine stacks two optional layers on
// top of it:
//
//   - a topology layer (node/switch hierarchy with per-level links and a
//     rank→node placement vector) that turns the flat link's wire time
//     into a pair-resolved cost, and
//   - a capability layer (per-rank efficiency, top frequency and power
//     scale) that makes ranks heterogeneous.
//
// Both layers are nil for the homogeneous flat machine, and every consumer
// of a flat Machine performs exactly the floating-point operations the plain
// Platform path performs — the homogeneous configuration stays bit-identical
// to the pre-machine code (golden-tested in machine_test.go).
//
// Pair-resolved transfer costs and topology-priced collectives are
// gear-independent, so they are resolved in the one replay scheduler, at
// record time, which Simulate and BuildSkeleton share. The retime tiers
// (full/scaled/delta/batch) never see the topology at all, which is how the
// fast path survives the refactor untouched. Capability efficiency folds
// into the compute scaling the retimers already support.

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/dvfs"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// Link is one level of the interconnect hierarchy: a latency/bandwidth pair
// in the same units as Platform.Latency/Platform.Bandwidth.
type Link struct {
	// Latency is the end-to-end latency of one message, in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
}

// validLink checks one hierarchy level.
func (l Link) valid() bool {
	return l.Latency >= 0 && !math.IsNaN(l.Latency) && l.Bandwidth > 0 && !math.IsNaN(l.Bandwidth)
}

// Topology places ranks onto a node/switch hierarchy with per-level links:
// ranks on the same node talk over Intra, ranks on different nodes under
// the same switch over Inter, and ranks under different switches over
// Remote. The model is contention-free (each message sees the full link).
type Topology struct {
	// Placement maps rank → node. Required; length must equal the rank
	// count of the trace being simulated.
	Placement []int
	// NodeSwitch maps node → switch. Nil means a single switch (Remote is
	// then never used).
	NodeSwitch []int
	// Intra is the link between ranks sharing a node.
	Intra Link
	// Inter is the link between nodes under the same switch.
	Inter Link
	// Remote is the link between nodes under different switches. Ignored
	// when NodeSwitch is nil; otherwise required.
	Remote Link
}

// NumNodes returns the number of distinct nodes the placement uses
// (max node id + 1).
func (t *Topology) NumNodes() int {
	max := -1
	for _, nd := range t.Placement {
		if nd > max {
			max = nd
		}
	}
	return max + 1
}

// BlockPlacement returns the contiguous placement of nranks ranks onto
// nodes of perNode ranks each: rank r lives on node r/perNode. This is the
// locality-friendly default placement for nearest-neighbour exchanges.
func BlockPlacement(nranks, perNode int) []int {
	pl := make([]int, nranks)
	for r := range pl {
		pl[r] = r / perNode
	}
	return pl
}

// Capability describes per-rank heterogeneity. All slices are indexed by
// rank; a nil slice means "homogeneous in that dimension".
type Capability struct {
	// Efficiency is each rank's compute speed relative to the nominal rank
	// the trace durations were recorded on: a burst of d seconds takes
	// d/Efficiency[r] on rank r. 1 is nominal; entries must be positive
	// and finite.
	Efficiency []float64
	// FMax is each rank's top frequency in GHz (per-rank gear ceiling). A
	// zero entry means the global top frequency. It bounds which gears an
	// optimizer may assign to the rank; it does not change the timing
	// reference (Options.FMax remains the frequency trace durations refer
	// to).
	FMax []float64
	// PowerScale multiplies each rank's modeled power draw (both dynamic
	// and static): 1 is nominal. Entries must be positive and finite.
	PowerScale []float64
}

// Machine is the full layered model: a base Platform (protocol constants
// and the flat link) plus optional topology and capability layers. The zero
// value of the layers — both nil — is the homogeneous flat machine, and
// Machine{Base: p} behaves bit-identically to p everywhere.
type Machine struct {
	Base Platform
	Topo *Topology
	Cap  *Capability
}

// FlatMachine wraps a plain Platform as a Machine with no topology or
// capability layer.
func FlatMachine(p Platform) Machine { return Machine{Base: p} }

// ResolveMachine is the one statement of how a pipeline config's platform
// and optional machine resolve for an nranks-rank trace: a zero p means
// DefaultPlatform, a nil m the flat machine on p, and an m with a zero Base
// inherits p. The result is checked with ValidateFor, so errors carry the
// validate stage.
func ResolveMachine(p Platform, m *Machine, nranks int) (Machine, error) {
	if p == (Platform{}) {
		p = DefaultPlatform()
	}
	out := FlatMachine(p)
	if m != nil {
		out = *m
		if out.Base == (Platform{}) {
			out.Base = p
		}
	}
	if err := out.ValidateFor(nranks); err != nil {
		return Machine{}, err
	}
	return out, nil
}

// Flat reports whether the machine is the plain homogeneous flat platform.
func (m *Machine) Flat() bool { return m.Topo == nil && m.Cap == nil }

// ValidateFor checks the whole machine against a rank count. nranks < 0
// skips the length checks (for contexts where the trace is not yet known).
func (m *Machine) ValidateFor(nranks int) error {
	if err := m.Base.Validate(); err != nil {
		return err
	}
	if t := m.Topo; t != nil {
		if len(t.Placement) == 0 {
			return stagerr.Errorf(stagerr.Validate, "dimemas: topology needs a placement vector")
		}
		if nranks >= 0 && len(t.Placement) != nranks {
			return stagerr.Errorf(stagerr.Validate, "dimemas: placement has %d entries for %d ranks", len(t.Placement), nranks)
		}
		nnodes := t.NumNodes()
		for r, nd := range t.Placement {
			if nd < 0 {
				return stagerr.Errorf(stagerr.Validate, "dimemas: rank %d placed on negative node %d", r, nd)
			}
		}
		if !t.Intra.valid() {
			return stagerr.Errorf(stagerr.Validate, "dimemas: invalid intra-node link %+v", t.Intra)
		}
		if !t.Inter.valid() {
			return stagerr.Errorf(stagerr.Validate, "dimemas: invalid inter-node link %+v", t.Inter)
		}
		if t.NodeSwitch != nil {
			if len(t.NodeSwitch) < nnodes {
				return stagerr.Errorf(stagerr.Validate, "dimemas: node-switch map has %d entries for %d nodes", len(t.NodeSwitch), nnodes)
			}
			for nd, sw := range t.NodeSwitch {
				if sw < 0 {
					return stagerr.Errorf(stagerr.Validate, "dimemas: node %d mapped to negative switch %d", nd, sw)
				}
			}
			if !t.Remote.valid() {
				return stagerr.Errorf(stagerr.Validate, "dimemas: invalid remote link %+v", t.Remote)
			}
		}
	}
	if c := m.Cap; c != nil {
		check := func(name string, v []float64, allowZero bool) error {
			if v == nil {
				return nil
			}
			if nranks >= 0 && len(v) != nranks {
				return stagerr.Errorf(stagerr.Validate, "dimemas: capability %s has %d entries for %d ranks", name, len(v), nranks)
			}
			for r, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || (x == 0 && !allowZero) {
					return stagerr.Errorf(stagerr.Validate, "dimemas: rank %d has invalid %s %v", r, name, x)
				}
			}
			return nil
		}
		if err := check("efficiency", c.Efficiency, false); err != nil {
			return err
		}
		if err := check("fmax", c.FMax, true); err != nil { // 0 = global default
			return err
		}
		if err := check("power scale", c.PowerScale, false); err != nil {
			return err
		}
	}
	return nil
}

// linkFor resolves the hierarchy level between two ranks. Must only be
// called with a non-nil topology.
func (t *Topology) linkFor(src, dst int) Link {
	a, b := t.Placement[src], t.Placement[dst]
	if a == b {
		return t.Intra
	}
	if t.NodeSwitch != nil && t.NodeSwitch[a] != t.NodeSwitch[b] {
		return t.Remote
	}
	return t.Inter
}

// transferPair returns the wire time of one b-byte message from rank src to
// rank dst. The flat path prices the base link: Latency + b/Bandwidth.
func (m *Machine) transferPair(src, dst int, b int64) float64 {
	if m.Topo == nil {
		return m.Base.Latency + float64(b)/m.Base.Bandwidth
	}
	l := m.Topo.linkFor(src, dst)
	return l.Latency + float64(b)/l.Bandwidth
}

// collectiveCost prices a collective over all n ranks. The flat path is
// exactly Platform.CollectiveCost; with a topology, the collective's
// spanning tree crosses the widest level any pair of ranks spans, and the
// contention-free tree model charges every stage the slowest spanned link.
func (m *Machine) collectiveCost(c trace.Collective, b int64, n int) float64 {
	if m.Topo == nil {
		return m.Base.CollectiveCost(c, b, n)
	}
	l := m.Topo.spannedLink(n)
	return collCost(c, b, n, l.Latency, l.Bandwidth, m.Base.LinearAllToAll)
}

// spannedLink returns the slowest hierarchy level a collective over ranks
// 0..n-1 crosses: Remote if any two ranks sit under different switches,
// Inter if any two sit on different nodes, Intra otherwise.
func (t *Topology) spannedLink(n int) Link {
	if n > len(t.Placement) {
		n = len(t.Placement)
	}
	nd0 := t.Placement[0]
	crossNode := false
	for r := 1; r < n; r++ {
		nd := t.Placement[r]
		if nd != nd0 {
			crossNode = true
			if t.NodeSwitch != nil && t.NodeSwitch[nd] != t.NodeSwitch[nd0] {
				return t.Remote
			}
		}
	}
	if crossNode {
		return t.Inter
	}
	return t.Intra
}

// ScaleVector returns the per-rank compute scaling the capability layer
// implies — scale[r] = 1/Efficiency[r] — or nil when every rank is nominal.
// This is the vector to feed RetimeScaled/RetimeDelta (and the one
// BuildSkeletonMachine bakes into compute durations).
func (m *Machine) ScaleVector() []float64 {
	if m.Cap == nil || m.Cap.Efficiency == nil {
		return nil
	}
	trivial := true
	for _, e := range m.Cap.Efficiency {
		if e != 1 {
			trivial = false
			break
		}
	}
	if trivial {
		return nil
	}
	scale := make([]float64, len(m.Cap.Efficiency))
	for r, e := range m.Cap.Efficiency {
		scale[r] = 1 / e
	}
	return scale
}

// RankFMax returns rank r's top frequency: the capability entry when set,
// the global fallback otherwise.
func (m *Machine) RankFMax(r int, global float64) float64 {
	if m.Cap != nil && r < len(m.Cap.FMax) && m.Cap.FMax[r] > 0 {
		return m.Cap.FMax[r]
	}
	return global
}

// RankTopGear returns the index of rank r's highest assignable gear in an
// ascending gear list: the highest whose frequency stays at or below the
// rank's capability ceiling (at least the bottom gear, matching
// dvfs.Set.QuantizeDown), the last one when the rank has no ceiling.
func (m *Machine) RankTopGear(r int, gears []dvfs.Gear) int {
	gi := len(gears) - 1
	if f := m.RankFMax(r, 0); f > 0 {
		for gi > 0 && gears[gi].Freq > f+1e-12 {
			gi--
		}
	}
	return gi
}

// RankPowerScale returns rank r's power multiplier (1 when homogeneous).
func (m *Machine) RankPowerScale(r int) float64 {
	if m.Cap != nil && r < len(m.Cap.PowerScale) {
		return m.Cap.PowerScale[r]
	}
	return 1
}

// Fingerprint canonically encodes the topology and capability layers for
// cache keying. The flat homogeneous machine fingerprints to "", so
// replay-cache keys for plain Platforms are unchanged by the machine
// refactor. Two machines with equal Base and equal fingerprints simulate
// identically.
func (m *Machine) Fingerprint() string {
	if m.Flat() {
		return ""
	}
	var sb strings.Builder
	if t := m.Topo; t != nil {
		sb.WriteString("t:p=")
		writeInts(&sb, t.Placement)
		if t.NodeSwitch != nil {
			sb.WriteString(";s=")
			writeInts(&sb, t.NodeSwitch)
		}
		sb.WriteString(";l=")
		writeLink(&sb, t.Intra)
		writeLink(&sb, t.Inter)
		writeLink(&sb, t.Remote)
	}
	if c := m.Cap; c != nil {
		sb.WriteString("c:e=")
		writeFloats(&sb, c.Efficiency)
		sb.WriteString(";f=")
		writeFloats(&sb, c.FMax)
		sb.WriteString(";p=")
		writeFloats(&sb, c.PowerScale)
	}
	return sb.String()
}

func writeInts(sb *strings.Builder, v []int) {
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(x))
	}
}

func writeFloats(sb *strings.Builder, v []float64) {
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
}

func writeLink(sb *strings.Builder, l Link) {
	sb.WriteByte('[')
	sb.WriteString(strconv.FormatFloat(l.Latency, 'g', -1, 64))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatFloat(l.Bandwidth, 'g', -1, 64))
	sb.WriteByte(']')
}
