// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — pwrsimd/pwrsimgw requests over loopback HTTP, or the offline
// experiments suite — for a fixed time, checks every response against a
// reference made at set-up, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// runner is one workload's set-up: a seeded op sequence and its checks.
type runner interface {
	seqLen() int
	// do executes op i of the sequence, checks its response and returns its
	// client-observed latency; with tr set it records the op's spans.
	do(i int, tr *tracer) (class string, lat time.Duration, err error)
	// replay re-runs a measured request's work through the public layer
	// calls, as spans under its request ID.
	replay(reqID string, key int, tr *tracer) error
	// extraProbe times layer calls no single request isolates.
	extraProbe(tr *tracer) error
	// timing switches the handler timers on or off.
	timing(on bool)
	counters() map[string]float64
	digest() string
	close()
}

type workloadDef struct {
	name      string
	tailPct   float64 // the fixed tail percentile; 0 when ops are too few
	setupReps int     // set-ups per run; setup_s is their median
	setup     func(seed int64, probe bool) (runner, error)
}

var workloads = []workloadDef{
	{"whatif-hot", 90, 5, func(seed int64, probe bool) (runner, error) {
		keys := whatifKeys
		if probe {
			keys = 2
		}
		r, err := setupWhatif(seed, keys)
		if err != nil {
			return nil, err
		}
		r.extra = whatifExtra
		return r, nil
	}},
	{"ingest-inline", 95, 5, func(seed int64, _ bool) (runner, error) {
		r, err := setupIngest(seed)
		if err != nil {
			return nil, err
		}
		r.extra = ingestExtra
		return r, nil
	}},
	{"control-loop", 90, 5, func(seed int64, _ bool) (runner, error) {
		r, err := setupControl(seed)
		if err != nil {
			return nil, err
		}
		r.extra = controlExtra(seed)
		return r, nil
	}},
	{"paper-suite", 0, 3, func(_ int64, probe bool) (runner, error) {
		r, err := setupSuite(probe)
		if err != nil {
			return nil, err
		}
		return r, nil
	}},
}

const (
	warmFor      = time.Second     // discarded warm-up before the measured phase
	replayBudget = 2 * time.Second // layer replays after a traced phase
	probeOps     = 40              // traced ops of a probe run of another workload
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady   = flag.Int("steadiness", 0, "run the workload this many times (seeds seed, seed+1, …) and report each metric's spread")
		spansDir = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	def, err := findWorkload(*name)
	if err == nil && *steady > 0 {
		err = steadiness(def, *seed, *seconds, *steady)
	} else if err == nil {
		err = run(def, *seed, *seconds, *traced == 1, *spansDir, start)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// meanSteal is the mean host steal of windows, weighted by their length.
func meanSteal(ws []window) float64 {
	var sum, wall float64
	for _, w := range ws {
		sum += w.steal * w.wall.Seconds()
		wall += w.wall.Seconds()
	}
	if wall == 0 {
		return 0
	}
	return sum / wall
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// phase is one measured stretch of the op sequence.
type phase struct {
	samples   []sample
	windows   []window
	attempted int
	failed    int
	wall      time.Duration
	before    phaseCounters
	after     phaseCounters
}

func (p *phase) completed() int { return p.attempted - p.failed }

// measureWindow is the shortest stretch of consecutive ops the phase is cut
// into; an op longer than that is a window of its own.
const measureWindow = 500 * time.Millisecond

// window is one stretch of consecutive ops, samples[first:last].
type window struct {
	first, last int
	wall        time.Duration
	cpu         time.Duration // process CPU time
	steal       float64       // host CPU steal, percent
}

// quiet returns the half of the windows (at least one) in which the
// hypervisor stole the least CPU from the host, in phase order. The
// end-to-end metrics are read from these: on a shared host, steal comes in
// regimes of seconds to minutes, and a stolen stretch inflates latency
// several times more than it steals.
func (p *phase) quiet() []window {
	ws := append([]window(nil), p.windows...)
	if len(ws) == 0 {
		return []window{{first: 0, last: len(p.samples), wall: p.wall}}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	ws = ws[:(len(ws)+1)/2]
	sort.Slice(ws, func(i, j int) bool { return ws[i].first < ws[j].first })
	return ws
}

// quietStats returns, over the quiet windows, each window's completed ops
// per wall second and process CPU milliseconds per completed op, and the
// windows' samples.
func (p *phase) quietStats() (rates, cpuMs []float64, samples []sample) {
	for _, w := range p.quiet() {
		ops := 0
		for _, s := range p.samples[w.first:w.last] {
			if !math.IsInf(s.Ms, 1) {
				ops++
			}
		}
		samples = append(samples, p.samples[w.first:w.last]...)
		if ops > 0 {
			rates = append(rates, float64(ops)/w.wall.Seconds())
			cpuMs = append(cpuMs, float64(w.cpu.Nanoseconds())/1e6/float64(ops))
		}
	}
	return rates, cpuMs, samples
}

func latencies(samples []sample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.Ms
	}
	return xs
}

// runPhase drives the sequence from op 0 in a closed loop until d has
// passed, cutting it into windows. A failed op counts as +Inf latency.
func runPhase(r runner, d time.Duration, tr *tracer) phase {
	var p phase
	p.before = snapshot()
	deadline := p.before.wall.Add(d)
	win, winCPU, winHost := p.before.wall, p.before.cpu, p.before.host
	first := 0
	for i := 0; ; i++ {
		class, lat, err := r.do(i%r.seqLen(), tr)
		ms := float64(lat.Nanoseconds()) / 1e6
		p.attempted++
		if err != nil {
			p.failed++
			ms = math.Inf(1)
			if p.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d (%s) failed: %v\n", i, class, err)
			}
		}
		p.samples = append(p.samples, sample{Class: class, Ms: ms})
		now := time.Now()
		if now.Sub(win) >= measureWindow {
			cpu, host := cpuTime(), readHostCPU()
			p.windows = append(p.windows, window{first: first, last: i + 1, wall: now.Sub(win), cpu: cpu - winCPU, steal: stealPct(winHost, host)})
			win, winCPU, winHost, first = now, cpu, host, i+1
		}
		if !now.Before(deadline) {
			break
		}
	}
	p.after = snapshot()
	p.wall = p.after.wall.Sub(p.before.wall)
	return p
}

// detail is the run's evidence line, printed before the result.
type detail struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Ops          int                `json:"ops"`
	QuietOps     int                `json:"quiet_ops"`
	FailRatio    float64            `json:"fail_ratio"`
	TailPct      float64            `json:"tail_pct,omitempty"`
	TailMs       *float64           `json:"latency_tail_ms"`
	Classes      []classShare       `json:"classes,omitempty"`
	Digest       string             `json:"reference_digest"`
	SetupRuns    []float64          `json:"setup_runs_s"`
	FirstOpS     float64            `json:"first_op_s"`
	StartRSSMB   float64            `json:"rss_at_first_op_mb"`
	StealPct     float64            `json:"host.steal_pct"`
	QuietSteal   float64            `json:"quiet_steal_pct"`
	ReconClass   string             `json:"recon_class,omitempty"`
	ReconParts   map[string]float64 `json:"recon_parts_ms,omitempty"`
	SpansWritten string             `json:"spans,omitempty"`
}

func run(def workloadDef, seed int64, seconds float64, traced bool, spansDir string, start time.Time) error {
	var (
		r         runner
		setupRuns []float64
	)
	digest := ""
	for k := 0; k < def.setupReps; k++ {
		if r != nil {
			// One set-up alive at a time, so the peak RSS is one set-up's.
			r.close()
			runtime.GC()
		}
		t0 := time.Now()
		next, err := def.setup(seed, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupRuns = append(setupRuns, time.Since(t0).Seconds())
		if digest != "" && next.digest() != digest {
			next.close()
			return errors.New("set-up: references differ between two set-ups of the same seed")
		}
		r, digest = next, next.digest()
	}
	defer r.close()

	warm := runPhase(r, warmFor, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	runtime.GC()
	firstOp := time.Since(start).Seconds()
	startRSS := peakRSSMB()

	d := time.Duration(seconds * float64(time.Second))
	if traced {
		d /= 2
	}
	c0 := r.counters()
	un := runPhase(r, d, nil)
	c1 := r.counters()

	rates, cpuMs, quiet := un.quietStats()
	sum := summarize(latencies(quiet), def.tailPct)
	det := detail{
		Workload: def.name, Seed: seed, Ops: un.attempted, QuietOps: len(quiet),
		FailRatio: float64(un.failed) / float64(un.attempted),
		TailPct:   def.tailPct,
		Digest:    r.digest(), SetupRuns: setupRuns, FirstOpS: firstOp, StartRSSMB: startRSS,
		StealPct: stealPct(un.before.host, un.after.host), QuietSteal: meanSteal(un.quiet()),
	}
	if sum.HasTail && !math.IsInf(sum.Tail, 1) {
		det.TailMs = &sum.Tail
	}
	layout := classLayout(quiet)
	if len(layout) > 1 {
		det.Classes = layout
	}
	pcts := []float64{50}
	if sum.HasTail {
		pcts = append(pcts, def.tailPct)
	}
	if err := checkClassGuard(quiet, layout, pcts...); err != nil {
		return err
	}

	res := result{Attempted: un.attempted, Failed: un.failed}
	completed := float64(un.completed())
	if !traced {
		if len(rates) == 0 {
			return errors.New("no op completed")
		}
		res.Metrics = map[string]metric{
			"throughput_ops": {median(rates), "1/s"},
			"latency_p50_ms": {sum.P50, "ms"},
			"cpu_ms_per_op":  {median(cpuMs), "ms"},
			"rss_mb":         {peakRSSMB(), "MB"},
			"setup_s":        {median(setupRuns), "s"},
		}
	} else {
		layers, err := tracedRun(def, r, seed, d, sum.P50, layout, &det, spansDir)
		if err != nil {
			return err
		}
		res.Attempted += layers.attempted
		res.Failed += layers.failed
		res.Metrics = layers.metrics
		lookups := (c1["hits"] - c0["hits"]) + (c1["misses"] - c0["misses"])
		ratio := 0.0
		if lookups > 0 {
			ratio = (c1["hits"] - c0["hits"]) / lookups
		}
		res.Metrics["dimemas.cache_hit_ratio"] = metric{ratio, "1"}
		res.Metrics["dimemas.cache_lookups"] = metric{lookups, "count"}
		res.Metrics["dimemas.cache_evictions"] = metric{c1["evictions"] - c0["evictions"], "count"}
		res.Metrics["gateway.hedges"] = metric{c1["hedges"] - c0["hedges"], "count"}
		res.Metrics["go.alloc_kb_per_op"] = metric{(un.after.gc.allocBytes - un.before.gc.allocBytes) / 1024 / completed, "KiB"}
		res.Metrics["go.gc_cpu_ms_per_op"] = metric{(un.after.gc.gcCPUSec - un.before.gc.gcCPUSec) * 1e3 / completed, "ms"}
		res.Metrics["host.steal_pct"] = metric{det.StealPct, "%"}
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		// A p50 that is a failed op is +Inf, which JSON cannot carry.
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
			res.Metrics[name] = m
		}
	}
	line, _ := json.Marshal(map[string]detail{"detail": det})
	fmt.Println(string(line))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerTime maps a per-layer time metric onto the span name it reads.
type layerTime struct {
	metric string
	span   string // a "/item" suffix reads the per-call (or per-item) view
	us     bool   // microseconds rather than milliseconds
}

func layerTimes() []layerTime {
	out := []layerTime{
		{"gateway.hop_us", "gateway.hop", true},
		{"server.handler_us", "server.handler", true},
		{"server.transport_us", "server.transport", true},
		{"server.decode_us", "server.decode", true},
		{"server.encode_us", "server.encode", true},
		{"trace.parse_ms", "trace.parse", false},
		{"trace.validate_ms", "trace.validate", false},
		{"workload.generate_ms", "workload.generate", false},
		{"dimemas.simulate_ms", "dimemas.simulate/item", false},
		{"dimemas.skeleton_record_ms", "dimemas.skeleton_record", false},
		{"dimemas.retime_full_us", "dimemas.retime_full/item", true},
		{"dimemas.retime_batch_us_per_item", "dimemas.retime_batch/item", true},
		{"dimemas.retime_scaled_us", "dimemas.retime_scaled", true},
		{"dimemas.retime_delta_us", "dimemas.retime_delta", true},
		{"core.assign_us", "core.assign/item", true},
		{"analysis.run_us", "analysis.run", true},
		{"analysis.run_batch_ms", "analysis.run_batch", false},
		{"powercap.run_ms", "powercap.run", false},
		{"rebalance.run_ms", "rebalance.run", false},
		{"gearopt.optimize_ms", "gearopt.optimize", false},
	}
	for _, e := range experiments.All() {
		out = append(out, layerTime{"experiments." + e.ID + "_ms", "experiments." + e.ID, false})
	}
	return out
}

// layerCounts are the per-request counts and ratios the layer replays
// record, with their units.
var layerCounts = map[string]string{
	"powercap.evals":                "count",
	"rebalance.reassignments":       "count",
	"predict.fallbacks":             "count",
	"dimemas.delta_contained_ratio": "1",
}

type tracedOut struct {
	metrics           map[string]metric
	attempted, failed int
}

// tracedRun replays the measured sequence with spans on, replays the
// measured requests through the layer calls, fills the layers this
// workload never calls from short probe runs of the other workloads, and
// reconciles the layer self times with the untraced p50.
func tracedRun(def workloadDef, r runner, seed int64, d time.Duration, untraced float64, layout []classShare, det *detail, spansDir string) (tracedOut, error) {
	tr := newTracer()
	r.timing(true)
	tp := runPhase(r, d, tr)
	r.timing(false)
	out := tracedOut{metrics: map[string]metric{}, attempted: tp.attempted, failed: tp.failed}
	if err := replayMeasured(r, tr); err != nil {
		return out, err
	}
	if err := r.extraProbe(tr); err != nil {
		return out, fmt.Errorf("layer probe: %w", err)
	}
	medians := tr.layerMedians()
	counts := map[string][]float64{}
	for k, v := range tr.counts {
		counts[k] = v
	}

	missing := func() []string {
		var m []string
		for _, lt := range layerTimes() {
			if _, ok := medians[lt.span]; !ok {
				m = append(m, lt.span)
			}
		}
		for c := range layerCounts {
			if len(counts[c]) == 0 {
				m = append(m, c)
			}
		}
		return m
	}
	for _, other := range workloads {
		if other.name == def.name || len(missing()) == 0 {
			continue
		}
		pm, pc, err := probeRun(other, seed)
		if err != nil {
			return out, fmt.Errorf("probe run of %s: %w", other.name, err)
		}
		for k, v := range pm {
			if _, ok := medians[k]; !ok {
				medians[k] = v
			}
		}
		for k, v := range pc {
			if len(counts[k]) == 0 {
				counts[k] = v
			}
		}
	}
	if m := missing(); len(m) > 0 {
		return out, fmt.Errorf("no layer measured for %s", strings.Join(m, ", "))
	}
	for _, lt := range layerTimes() {
		v := medians[lt.span]
		if lt.us {
			out.metrics[lt.metric] = metric{v * 1e3, "us"}
		} else {
			out.metrics[lt.metric] = metric{v, "ms"}
		}
	}
	out.metrics["trace.parse_mb_s"] = metric{1e-3 / medians["trace.parse/item"], "MB/s"}
	for c, unit := range layerCounts {
		out.metrics[c] = metric{median(counts[c]), unit}
	}

	// Reconciliation, in the class that holds the untraced p50.
	class := "suite"
	for _, c := range layout {
		if 50 > c.From && 50 <= c.To {
			class = c.Class
		}
	}
	layerSum, parts := tr.reconcile(class)
	_, _, tq := tp.quietStats()
	traced := summarize(latencies(tq), 0).P50
	out.metrics["recon.untraced_p50_ms"] = metric{untraced, "ms"}
	out.metrics["recon.traced_p50_ms"] = metric{traced, "ms"}
	out.metrics["recon.layer_sum_ms"] = metric{layerSum, "ms"}
	out.metrics["recon.unattributed_ms"] = metric{untraced - layerSum, "ms"}
	out.metrics["recon.tracing_overhead_ms"] = metric{traced - untraced, "ms"}
	det.ReconClass, det.ReconParts = class, parts

	path := filepath.Join(spansDir, def.name+"-seed"+strconv.FormatInt(seed, 10)+".jsonl")
	if err := tr.write(path); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	det.SpansWritten = path
	return out, nil
}

// replayMeasured replays the measured requests through the layer calls, in
// order, until replayBudget is spent.
func replayMeasured(r runner, tr *tracer) error {
	deadline := time.Now().Add(replayBudget)
	for _, id := range tr.order {
		if err := r.replay(id, tr.key[id], tr); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return nil
}

// probeRun sets up another workload in probe form, traces a few of its ops,
// replays them and runs its extra probes, returning its layer medians and
// counts. Its spans enter no reconciliation.
func probeRun(def workloadDef, seed int64) (map[string]float64, map[string][]float64, error) {
	r, err := def.setup(seed, true)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	tr := newTracer()
	r.timing(true)
	n := min(probeOps, r.seqLen())
	for i := 0; i < n; i++ {
		if _, _, err := r.do(i, tr); err != nil {
			return nil, nil, err
		}
	}
	r.timing(false)
	if err := replayMeasured(r, tr); err != nil {
		return nil, nil, err
	}
	if err := r.extraProbe(tr); err != nil {
		return nil, nil, err
	}
	return tr.layerMedians(), tr.counts, nil
}
