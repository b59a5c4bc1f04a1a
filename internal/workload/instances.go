package workload

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/stats"
)

// Instance identifies one application run of the paper's evaluation: an
// application, a process count and the Table 3 characteristics to calibrate
// to (both expressed as fractions, not percentages).
type Instance struct {
	Name     string  // e.g. "CG-64"
	App      string  // e.g. "CG"
	NProcs   int     // number of MPI processes
	TargetLB float64 // load balance to reproduce (eq. 4)
	TargetPE float64 // parallel efficiency to reproduce (eq. 5)
}

// Table3 returns the twelve application instances of the paper's Table 3,
// in the paper's order.
func Table3() []Instance {
	return []Instance{
		{"BT-MZ-32", "BT-MZ", 32, 0.3521, 0.3507},
		{"CG-32", "CG", 32, 0.9782, 0.7855},
		{"MG-32", "MG", 32, 0.9455, 0.8728},
		{"IS-32", "IS", 32, 0.4377, 0.0821},
		{"SPECFEM3D-32", "SPECFEM3D", 32, 0.9280, 0.9261},
		{"WRF-32", "WRF", 32, 0.9060, 0.8953},
		{"CG-64", "CG", 64, 0.9346, 0.6336},
		{"MG-64", "MG", 64, 0.9150, 0.8560},
		{"IS-64", "IS", 64, 0.4959, 0.1700},
		{"SPECFEM3D-96", "SPECFEM3D", 96, 0.7907, 0.7865},
		{"PEPC-128", "PEPC", 128, 0.7612, 0.6778},
		{"WRF-128", "WRF", 128, 0.9365, 0.8527},
	}
}

// Apps returns the distinct application names, in a stable order.
func Apps() []string {
	return []string{"BT-MZ", "CG", "IS", "MG", "PEPC", "SPECFEM3D", "WRF"}
}

// FindInstance returns the Table 3 instance with the given name.
func FindInstance(name string) (Instance, error) {
	for _, inst := range Table3() {
		if inst.Name == name {
			return inst, nil
		}
	}
	return Instance{}, fmt.Errorf("workload: unknown instance %q (want one of Table 3)", name)
}

// anchor is one (nprocs → LB, PE) data point from Table 3.
type anchor struct {
	n      int
	lb, pe float64
}

// anchors lists each application's Table 3 points in ascending process
// count.
var anchors = map[string][]anchor{
	"BT-MZ":     {{32, 0.3521, 0.3507}},
	"CG":        {{32, 0.9782, 0.7855}, {64, 0.9346, 0.6336}},
	"MG":        {{32, 0.9455, 0.8728}, {64, 0.9150, 0.8560}},
	"IS":        {{32, 0.4377, 0.0821}, {64, 0.4959, 0.1700}},
	"SPECFEM3D": {{32, 0.9280, 0.9261}, {96, 0.7907, 0.7865}},
	"WRF":       {{32, 0.9060, 0.8953}, {128, 0.9365, 0.8527}},
	"PEPC":      {{128, 0.7612, 0.6778}},
}

// defaultLBSlope is the per-doubling load-balance drift applied when an
// application has a single Table 3 anchor: the paper's motivation is that
// imbalance tends to grow with cluster size (§1).
const defaultLBSlope = -0.04

// InstanceFor builds an instance for an arbitrary process count by
// interpolating (or extrapolating) the Table 3 characteristics in log₂
// space. It supports the cluster-size scaling studies the paper motivates.
// A count whose load shape cannot reach the interpolated balance is
// rejected here, by CheckShape, before any trace is emitted or calibrated.
// From 2 to 40 ranks those counts are IS at 2 and 3 and PEPC at 3
// (TestInstanceForMatchesGenerate).
func InstanceFor(app string, nprocs int) (Instance, error) {
	inst, err := Interpolate(app, nprocs)
	if err != nil {
		return Instance{}, err
	}
	if err := inst.CheckShape(); err != nil {
		return Instance{}, err
	}
	return inst, nil
}

// Interpolate is InstanceFor without the CheckShape call: it computes the
// instance's targets but does not check that its loads can be shaped. A
// Table 3 (app, count) pair returns that Table 3 instance itself, so one
// instance name always means one set of targets: interpolating at an
// anchor need not round back to the table's values, and the PE headroom
// clamp below would move SPECFEM3D-32 and BT-MZ-32.
func Interpolate(app string, nprocs int) (Instance, error) {
	as, ok := anchors[app]
	if !ok {
		return Instance{}, fmt.Errorf("workload: unknown application %q (want one of %v)", app, Apps())
	}
	if nprocs < 2 {
		return Instance{}, fmt.Errorf("workload: need at least 2 processes, got %d", nprocs)
	}
	for _, inst := range Table3() {
		if inst.App == app && inst.NProcs == nprocs {
			return inst, nil
		}
	}
	var lb, pe float64
	switch {
	case len(as) == 1:
		a := as[0]
		doublings := math.Log2(float64(nprocs) / float64(a.n))
		lb = a.lb + defaultLBSlope*doublings
		pe = lb * (a.pe / a.lb)
	default:
		lo, hi := as[0], as[len(as)-1]
		x := math.Log2(float64(nprocs))
		x0, x1 := math.Log2(float64(lo.n)), math.Log2(float64(hi.n))
		t := (x - x0) / (x1 - x0)
		lb = lo.lb + t*(hi.lb-lo.lb)
		pe = lo.pe + t*(hi.pe-lo.pe)
	}
	lb = stats.Clamp(lb, 0.05, 0.995)
	// Leave headroom below LB: even a communication-free replay loses a
	// little efficiency to synchronization, so a PE target too close to LB
	// would be unreachable.
	pe = stats.Clamp(pe, 0.02, 0.995*lb)
	return Instance{
		Name:     fmt.Sprintf("%s-%d", app, nprocs),
		App:      app,
		NProcs:   nprocs,
		TargetLB: lb,
		TargetPE: pe,
	}, nil
}

// seed derives a stable RNG seed from the instance name.
func (inst Instance) seed() int64 {
	h := fnv.New64a()
	h.Write([]byte(inst.Name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Validate checks instance parameters.
func (inst Instance) Validate() error {
	if inst.NProcs < 2 {
		return fmt.Errorf("workload: instance %q needs at least 2 processes", inst.Name)
	}
	if inst.TargetLB <= 0 || inst.TargetLB > 1 {
		return fmt.Errorf("workload: instance %q load balance %v outside (0, 1]", inst.Name, inst.TargetLB)
	}
	if inst.TargetPE <= 0 || inst.TargetPE > inst.TargetLB {
		return fmt.Errorf("workload: instance %q parallel efficiency %v outside (0, LB=%v]", inst.Name, inst.TargetPE, inst.TargetLB)
	}
	found := false
	for _, a := range Apps() {
		if a == inst.App {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("workload: instance %q has unknown application %q", inst.Name, inst.App)
	}
	return nil
}
