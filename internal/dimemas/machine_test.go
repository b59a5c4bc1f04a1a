package dimemas

// Golden tests for the layered machine model: the flat homogeneous machine
// must stay bit-identical to the plain-Platform code paths, machine
// skeleton retimes must stay bit-identical to SimulateMachine, and the
// topology/capability layers must price hand-checkable scenarios exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// randomTopology places n ranks on nodes of 2, with a switch split when
// there are at least 4 nodes.
func randomTopology(rng *rand.Rand, n int) *Topology {
	pl := BlockPlacement(n, 2)
	rng.Shuffle(n, func(i, j int) { pl[i], pl[j] = pl[j], pl[i] })
	t := &Topology{
		Placement: pl,
		Intra:     Link{Latency: 5e-7, Bandwidth: 6e9},
		Inter:     Link{Latency: 9e-6, Bandwidth: 2e8},
	}
	if nn := t.NumNodes(); nn >= 4 {
		ns := make([]int, nn)
		for i := range ns {
			ns[i] = i * 2 / nn
		}
		t.NodeSwitch = ns
		t.Remote = Link{Latency: 3e-5, Bandwidth: 8e7}
	}
	return t
}

func randomCapability(rng *rand.Rand, n int) *Capability {
	eff := make([]float64, n)
	for i := range eff {
		eff[i] = 0.5 + rng.Float64()*1.5
	}
	return &Capability{Efficiency: eff}
}

func TestFlatMachineBitIdenticalToPlatform(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{2, 4, 8} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed * 17))
				opts := Options{Beta: 0.5, FMax: 2.3, RecordTimeline: true}
				want, err := Simulate(tr, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SimulateMachine(tr, FlatMachine(p), opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d n=%d platform=%d", seed, n, pi)
				mustEqualResults(t, label+" flat SimulateMachine", got, want)

				skWant, err := BuildSkeleton(tr, p, Options{Beta: 0.5, FMax: 2.3})
				if err != nil {
					t.Fatal(err)
				}
				skGot, err := BuildSkeletonMachine(tr, FlatMachine(p), Options{Beta: 0.5, FMax: 2.3})
				if err != nil {
					t.Fatal(err)
				}
				freqs := randomGearVector(rng, n)
				a, err := skWant.Retime(freqs, true)
				if err != nil {
					t.Fatal(err)
				}
				b, err := skGot.Retime(freqs, true)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, label+" flat machine skeleton", b, a)
			}
		}
	}
}

func TestOneNodeTopologyWithBaseLinkMatchesFlat(t *testing.T) {
	// A degenerate topology — every rank on one node, Intra equal to the
	// base link — performs the same arithmetic as the flat machine.
	p := DefaultPlatform()
	for seed := int64(1); seed <= 3; seed++ {
		n := 8
		tr := randomValidTrace(seed*41, n, 3, p.EagerLimit)
		m := Machine{Base: p, Topo: &Topology{
			Placement: make([]int, n), // all on node 0
			Intra:     Link{Latency: p.Latency, Bandwidth: p.Bandwidth},
			Inter:     Link{Latency: p.Latency, Bandwidth: p.Bandwidth},
		}}
		opts := Options{Beta: 0.5, FMax: 2.3, RecordTimeline: true}
		want, err := Simulate(tr, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateMachine(tr, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("seed=%d one-node topology", seed), got, want)
	}
}

func TestMachineSkeletonRetimeMatchesSimulateMachine(t *testing.T) {
	// The machine retime contract: Retime on a machine skeleton is
	// bit-identical to SimulateMachine, heterogeneous layers included.
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{4, 8} {
			p := DefaultPlatform()
			tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
			rng := rand.New(rand.NewSource(seed * 7))
			m := Machine{Base: p, Topo: randomTopology(rng, n), Cap: randomCapability(rng, n)}
			opts := Options{Beta: 0.5, FMax: 2.3}
			sk, err := BuildSkeletonMachine(tr, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, freqs := range [][]float64{nil, randomGearVector(rng, n)} {
				simOpts := opts
				simOpts.Freqs = freqs
				simOpts.RecordTimeline = true
				want, err := SimulateMachine(tr, m, simOpts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sk.Retime(freqs, true)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, fmt.Sprintf("seed=%d n=%d machine retime", seed, n), got, want)
			}
		}
	}
}

// TestSimulateMachineMatchesReference holds SimulateMachine against the
// machine-aware polling reference, which shares neither the scheduler nor
// the retime kernel: random topology, efficiency and combined machines, at
// several β, with and without frequencies (the traces carry β overrides)
// and timelines.
func TestSimulateMachineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{2, 4, 8} {
			for pi, p := range equivPlatforms() {
				tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
				rng := rand.New(rand.NewSource(seed*13 + int64(n)))
				topo, capab := randomTopology(rng, n), randomCapability(rng, n)
				machines := []Machine{
					{Base: p, Topo: topo},
					{Base: p, Cap: capab},
					{Base: p, Topo: topo, Cap: capab},
				}
				for mi, m := range machines {
					for _, beta := range []float64{0, 0.5, 1} {
						for _, freqs := range [][]float64{nil, randomGearVector(rng, n)} {
							for _, timeline := range []bool{false, true} {
								opts := Options{Beta: beta, FMax: 2.3, Freqs: freqs, RecordTimeline: timeline}
								label := fmt.Sprintf("seed=%d n=%d platform=%d machine=%d beta=%v freqs=%v timeline=%v",
									seed, n, pi, mi, beta, freqs != nil, timeline)
								want, err := simulateReferenceMachine(tr, &m, opts)
								if err != nil {
									t.Fatalf("%s: reference: %v", label, err)
								}
								got, err := SimulateMachine(tr, m, opts)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								mustEqualResults(t, label, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestTopologyPairResolvedTransfer(t *testing.T) {
	// Two eager pings on a zero-overhead machine: rank 0→1 share a node
	// (fast link), rank 0→2 crosses nodes (slow link).
	base := Platform{Latency: 1, Bandwidth: 1, EagerLimit: 100, LinearAllToAll: true}
	m := Machine{Base: base, Topo: &Topology{
		Placement: []int{0, 0, 1},
		Intra:     Link{Latency: 1, Bandwidth: 10}, // 10 bytes → 1 + 1 = 2 s
		Inter:     Link{Latency: 5, Bandwidth: 1},  // 10 bytes → 5 + 10 = 15 s
	}}
	tr := trace.New("x", 3)
	tr.Add(0, trace.Send(1, 10, 0), trace.Send(2, 10, 1))
	tr.Add(1, trace.Recv(0, 10, 0))
	tr.Add(2, trace.Recv(0, 10, 1))
	res, err := SimulateMachine(tr, m, Options{Beta: 0.5, FMax: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Finish[1]-2) > 1e-12 {
		t.Errorf("intra-node recv finish = %v, want 2", res.Finish[1])
	}
	if math.Abs(res.Finish[2]-15) > 1e-12 {
		t.Errorf("inter-node recv finish = %v, want 15", res.Finish[2])
	}
}

func TestTopologyCollectiveSpannedLink(t *testing.T) {
	base := Platform{Latency: 1, Bandwidth: 1, EagerLimit: 100, LinearAllToAll: true}
	intra := Link{Latency: 1, Bandwidth: 10}
	inter := Link{Latency: 5, Bandwidth: 1}
	remote := Link{Latency: 20, Bandwidth: 0.5}
	mk := func(placement []int, nodeSwitch []int) *Machine {
		return &Machine{Base: base, Topo: &Topology{
			Placement: placement, NodeSwitch: nodeSwitch,
			Intra: intra, Inter: inter, Remote: remote,
		}}
	}
	const n, b = 4, 8
	wantFor := func(l Link) float64 {
		return collCost(trace.CollAllReduce, b, n, l.Latency, l.Bandwidth, true)
	}
	cases := []struct {
		name string
		m    *Machine
		want float64
	}{
		{"one node", mk([]int{0, 0, 0, 0}, nil), wantFor(intra)},
		{"two nodes one switch", mk([]int{0, 0, 1, 1}, nil), wantFor(inter)},
		{"two switches", mk([]int{0, 0, 1, 1}, []int{0, 1}), wantFor(remote)},
	}
	for _, tc := range cases {
		got := tc.m.collectiveCost(trace.CollAllReduce, b, n)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: collective cost = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCapabilityStretchesCompute(t *testing.T) {
	// Efficiency 2 halves a burst, efficiency 0.5 doubles it.
	p := Platform{Latency: 0, Bandwidth: 1, EagerLimit: 100, LinearAllToAll: true}
	m := Machine{Base: p, Cap: &Capability{Efficiency: []float64{2, 0.5}}}
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(4))
	tr.Add(1, trace.Compute(4))
	res, err := SimulateMachine(tr, m, Options{Beta: 0.5, FMax: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Compute[0]-2) > 1e-12 || math.Abs(res.Compute[1]-8) > 1e-12 {
		t.Errorf("Compute = %v, want [2 8]", res.Compute)
	}
}

func TestMachineValidateFor(t *testing.T) {
	p := DefaultPlatform()
	cases := []struct {
		name string
		m    Machine
	}{
		{"empty placement", Machine{Base: p, Topo: &Topology{Intra: Link{0, 1e9}, Inter: Link{0, 1e9}}}},
		{"placement length", Machine{Base: p, Topo: &Topology{Placement: []int{0}, Intra: Link{0, 1e9}, Inter: Link{0, 1e9}}}},
		{"negative node", Machine{Base: p, Topo: &Topology{Placement: []int{0, -1}, Intra: Link{0, 1e9}, Inter: Link{0, 1e9}}}},
		{"bad intra link", Machine{Base: p, Topo: &Topology{Placement: []int{0, 1}, Intra: Link{math.NaN(), 1e9}, Inter: Link{0, 1e9}}}},
		{"zero-bandwidth inter", Machine{Base: p, Topo: &Topology{Placement: []int{0, 1}, Intra: Link{0, 1e9}, Inter: Link{0, 0}}}},
		{"short node-switch map", Machine{Base: p, Topo: &Topology{Placement: []int{0, 1}, NodeSwitch: []int{0}, Intra: Link{0, 1e9}, Inter: Link{0, 1e9}, Remote: Link{0, 1e9}}}},
		{"bad remote link", Machine{Base: p, Topo: &Topology{Placement: []int{0, 1}, NodeSwitch: []int{0, 1}, Intra: Link{0, 1e9}, Inter: Link{0, 1e9}}}},
		{"efficiency length", Machine{Base: p, Cap: &Capability{Efficiency: []float64{1}}}},
		{"zero efficiency", Machine{Base: p, Cap: &Capability{Efficiency: []float64{1, 0}}}},
		{"NaN efficiency", Machine{Base: p, Cap: &Capability{Efficiency: []float64{1, math.NaN()}}}},
		{"negative fmax", Machine{Base: p, Cap: &Capability{FMax: []float64{2.3, -1}}}},
		{"zero power scale", Machine{Base: p, Cap: &Capability{PowerScale: []float64{0, 1}}}},
	}
	for _, tc := range cases {
		if err := tc.m.ValidateFor(2); err == nil {
			t.Errorf("%s: ValidateFor accepted invalid machine", tc.name)
		}
	}
	ok := Machine{Base: p,
		Topo: &Topology{Placement: []int{0, 1}, NodeSwitch: []int{0, 1}, Intra: Link{0, 1e9}, Inter: Link{1e-6, 1e8}, Remote: Link{1e-5, 1e7}},
		Cap:  &Capability{Efficiency: []float64{1, 2}, FMax: []float64{0, 2.0}, PowerScale: []float64{1, 1.4}},
	}
	if err := ok.ValidateFor(2); err != nil {
		t.Errorf("valid machine rejected: %v", err)
	}
	// Per-rank capability accessors.
	if got := ok.RankFMax(0, 2.3); got != 2.3 {
		t.Errorf("RankFMax(0) = %v, want global 2.3", got)
	}
	if got := ok.RankFMax(1, 2.3); got != 2.0 {
		t.Errorf("RankFMax(1) = %v, want 2.0", got)
	}
	if got := ok.RankPowerScale(1); got != 1.4 {
		t.Errorf("RankPowerScale(1) = %v, want 1.4", got)
	}
}

func TestMachineFingerprint(t *testing.T) {
	p := DefaultPlatform()
	flat := FlatMachine(p)
	if fp := flat.Fingerprint(); fp != "" {
		t.Errorf("flat fingerprint = %q, want empty", fp)
	}
	a := Machine{Base: p, Topo: &Topology{Placement: []int{0, 0, 1, 1}, Intra: Link{1e-7, 1e9}, Inter: Link{1e-5, 1e8}}}
	b := Machine{Base: p, Topo: &Topology{Placement: []int{0, 1, 0, 1}, Intra: Link{1e-7, 1e9}, Inter: Link{1e-5, 1e8}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different placements share a fingerprint")
	}
	a2 := Machine{Base: p, Topo: &Topology{Placement: []int{0, 0, 1, 1}, Intra: Link{1e-7, 1e9}, Inter: Link{1e-5, 1e8}}}
	if a.Fingerprint() != a2.Fingerprint() {
		t.Error("equal machines have different fingerprints")
	}
	c := Machine{Base: p, Cap: &Capability{Efficiency: []float64{1, 2, 1, 1}}}
	if c.Fingerprint() == a.Fingerprint() || c.Fingerprint() == "" {
		t.Error("capability fingerprint missing or colliding")
	}
}

func TestReplayCacheMachineKeying(t *testing.T) {
	p := DefaultPlatform()
	tr := randomValidTrace(7, 4, 2, p.EagerLimit)
	cache := NewReplayCache()
	opts := Options{Beta: 0.5, FMax: 2.3}

	// Flat machine and plain Platform mint the same key: second call hits.
	// The first call misses once (the recording the baseline is retimed
	// from).
	if _, err := cache.Original(tr, p, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.ReplayMachine(tr, FlatMachine(p), opts); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("flat keying: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	// A heterogeneous machine mints a distinct key.
	m := Machine{Base: p, Cap: &Capability{Efficiency: []float64{1, 1, 1, 2}}}
	r1, err := cache.ReplayMachine(tr, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	flatRes, err := cache.Original(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == flatRes {
		t.Error("heterogeneous machine shared the flat machine's cache entry")
	}
	if cache.Len() != 2 { // one recording per machine
		t.Errorf("entries = %d, want 2", cache.Len())
	}
}

func TestValidateRejectsNaNPlatformFields(t *testing.T) {
	// Regression: Overhead < 0 is false for NaN, so a NaN overhead used to
	// slip through Validate and breed NaN clocks.
	base := DefaultPlatform()
	for _, tc := range []struct {
		name string
		mut  func(*Platform)
	}{
		{"NaN overhead", func(p *Platform) { p.Overhead = math.NaN() }},
		{"NaN latency", func(p *Platform) { p.Latency = math.NaN() }},
		{"NaN bandwidth", func(p *Platform) { p.Bandwidth = math.NaN() }},
	} {
		p := base
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the platform", tc.name)
		}
	}
}

func TestCollectiveCostTable(t *testing.T) {
	// Pin the modeled formulas over every collective kind, both all-to-all
	// models and the n ≤ 1 / b = 0 edge cases.
	p := Platform{Latency: 2, Bandwidth: 4, EagerLimit: 100}
	const n = 8 // stages = 3
	step := func(b int64) float64 { return 2 + float64(b)/4 }
	kinds := []trace.Collective{
		trace.CollBarrier, trace.CollBcast, trace.CollReduce,
		trace.CollAllReduce, trace.CollAllGather, trace.CollAllToAll,
	}
	want := func(c trace.Collective, b int64, linear bool) float64 {
		switch c {
		case trace.CollBarrier:
			return 3 * 2 // stages × latency
		case trace.CollAllReduce:
			return 2 * 3 * step(b)
		case trace.CollAllGather, trace.CollAllToAll:
			if linear {
				return float64(n-1) * step(b)
			}
			return 3 * step(b)
		default: // Bcast, Reduce
			return 3 * step(b)
		}
	}
	for _, linear := range []bool{false, true} {
		pl := p
		pl.LinearAllToAll = linear
		for _, c := range kinds {
			for _, b := range []int64{0, 64} {
				got := pl.CollectiveCost(c, b, n)
				if w := want(c, b, linear); math.Abs(got-w) > 1e-12 {
					t.Errorf("linear=%v %v b=%d: cost = %v, want %v", linear, c, b, got, w)
				}
			}
			// Degenerate groups cost nothing.
			for _, small := range []int{0, 1} {
				if got := pl.CollectiveCost(c, 64, small); got != 0 {
					t.Errorf("linear=%v %v n=%d: cost = %v, want 0", linear, c, small, got)
				}
			}
		}
	}
}
