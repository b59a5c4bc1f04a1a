package dimemas

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// flatPlatform has zero latency/overhead and unit bandwidth so that expected
// times can be computed by hand.
func flatPlatform() Platform {
	return Platform{Latency: 0, Bandwidth: 1, EagerLimit: 100, Overhead: 0, LinearAllToAll: true}
}

func simOK(t *testing.T, tr *trace.Trace, p Platform, o Options) *Result {
	t.Helper()
	res, err := Simulate(tr, p, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComputeOnly(t *testing.T) {
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(3))
	tr.Add(1, trace.Compute(1), trace.Compute(1))
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	if res.Time != 3 {
		t.Errorf("Time = %v, want 3", res.Time)
	}
	if res.Compute[0] != 3 || res.Compute[1] != 2 {
		t.Errorf("Compute = %v", res.Compute)
	}
	if res.Finish[0] != 3 || res.Finish[1] != 2 {
		t.Errorf("Finish = %v", res.Finish)
	}
	if got := res.Comm(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("Comm(1) = %v, want 1 (idle tail)", got)
	}
}

func TestEagerPingTime(t *testing.T) {
	// Rank 0 computes 1s then sends 10 bytes (eager, bw=1 B/s ⇒ 10 s wire).
	// Rank 1 recvs immediately: unblocks at 1 + 10 = 11, then computes 1.
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(1), trace.Send(1, 10, 0))
	tr.Add(1, trace.Recv(0, 10, 0), trace.Compute(1))
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	if math.Abs(res.Finish[1]-12) > 1e-12 {
		t.Errorf("Finish[1] = %v, want 12", res.Finish[1])
	}
	// Eager sender does not wait for the receiver.
	if math.Abs(res.Finish[0]-1) > 1e-12 {
		t.Errorf("Finish[0] = %v, want 1", res.Finish[0])
	}
}

func TestRendezvousBlocksSender(t *testing.T) {
	// 200-byte message exceeds the 100-byte eager limit: the transfer cannot
	// start before the receiver posts at t=5. End = max(0, 5) + 200 = 205.
	tr := trace.New("x", 2)
	tr.Add(0, trace.Send(1, 200, 0))
	tr.Add(1, trace.Compute(5), trace.Recv(0, 200, 0))
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	if math.Abs(res.Finish[0]-205) > 1e-12 {
		t.Errorf("sender Finish = %v, want 205", res.Finish[0])
	}
	if math.Abs(res.Finish[1]-205) > 1e-12 {
		t.Errorf("receiver Finish = %v, want 205", res.Finish[1])
	}
}

func TestRendezvousSenderArrivesLate(t *testing.T) {
	// Receiver posts at t=0, sender ready at t=5: end = 5 + 200 = 205.
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(5), trace.Send(1, 200, 0))
	tr.Add(1, trace.Recv(0, 200, 0))
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	if math.Abs(res.Time-205) > 1e-12 {
		t.Errorf("Time = %v, want 205", res.Time)
	}
}

func TestLatencyAndOverheadCharged(t *testing.T) {
	p := Platform{Latency: 0.5, Bandwidth: 10, EagerLimit: 1000, Overhead: 0.25}
	// send: sender clock = 0.25 (overhead); arrival = 0.25 + 0.5 + 10/10 = 1.75.
	// receiver: overhead 0.25 then waits: clock = max(0.25, 1.75) = 1.75.
	tr := trace.New("x", 2)
	tr.Add(0, trace.Send(1, 10, 0))
	tr.Add(1, trace.Recv(0, 10, 0))
	res := simOK(t, tr, p, DefaultOptions())
	if math.Abs(res.Finish[0]-0.25) > 1e-12 {
		t.Errorf("sender = %v, want 0.25", res.Finish[0])
	}
	if math.Abs(res.Finish[1]-1.75) > 1e-12 {
		t.Errorf("receiver = %v, want 1.75", res.Finish[1])
	}
}

func TestMessagesMatchInOrderPerChannel(t *testing.T) {
	// Two eager messages on the same channel must match FIFO.
	tr := trace.New("x", 2)
	tr.Add(0, trace.Send(1, 10, 0), trace.Compute(100), trace.Send(1, 20, 0))
	tr.Add(1, trace.Recv(0, 10, 0), trace.Recv(0, 20, 0))
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	// Second message ready at t=100, arrival 120; receiver finishes then.
	if math.Abs(res.Finish[1]-120) > 1e-12 {
		t.Errorf("receiver = %v, want 120", res.Finish[1])
	}
}

func TestCollectiveSynchronizesAllRanks(t *testing.T) {
	p := Platform{Latency: 1, Bandwidth: 1e9, EagerLimit: 100, Overhead: 0}
	tr := trace.New("x", 4)
	for r := 0; r < 4; r++ {
		tr.Add(r, trace.Compute(float64(r+1)), trace.Coll(trace.CollBarrier, 0))
	}
	res := simOK(t, tr, p, DefaultOptions())
	// Last arrival t=4; barrier cost = ceil(log2 4)·L = 2. All finish at 6.
	for r := 0; r < 4; r++ {
		if math.Abs(res.Finish[r]-6) > 1e-12 {
			t.Errorf("rank %d finish = %v, want 6", r, res.Finish[r])
		}
	}
}

func TestCollectiveCostModels(t *testing.T) {
	p := Platform{Latency: 1, Bandwidth: 1, EagerLimit: 0, LinearAllToAll: true}
	n := 8
	step := 1 + 4.0 // latency + 4 bytes / 1 B/s
	tests := []struct {
		coll trace.Collective
		want float64
	}{
		{trace.CollBarrier, 3 * 1.0},
		{trace.CollBcast, 3 * step},
		{trace.CollReduce, 3 * step},
		{trace.CollAllReduce, 6 * step},
		{trace.CollAllGather, 7 * step},
		{trace.CollAllToAll, 7 * step},
	}
	for _, tt := range tests {
		if got := p.CollectiveCost(tt.coll, 4, n); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%v cost = %v, want %v", tt.coll, got, tt.want)
		}
	}
	// Logarithmic all-to-all ablation.
	p.LinearAllToAll = false
	if got := p.CollectiveCost(trace.CollAllToAll, 4, n); math.Abs(got-3*step) > 1e-12 {
		t.Errorf("log alltoall = %v, want %v", got, 3*step)
	}
	// Degenerate single-rank collective is free.
	if got := p.CollectiveCost(trace.CollAllReduce, 4, 1); got != 0 {
		t.Errorf("1-rank collective = %v, want 0", got)
	}
}

func TestFrequencyScalingSlowsCompute(t *testing.T) {
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(1))
	tr.Add(1, trace.Compute(1))
	o := DefaultOptions()
	o.Freqs = []float64{2.3, 1.15} // rank 1 at half frequency
	res := simOK(t, tr, flatPlatform(), o)
	// β=0.5: slowdown at half frequency = 1.5.
	if math.Abs(res.Compute[1]-1.5) > 1e-12 {
		t.Errorf("Compute[1] = %v, want 1.5", res.Compute[1])
	}
	if math.Abs(res.Compute[0]-1.0) > 1e-12 {
		t.Errorf("Compute[0] = %v, want 1", res.Compute[0])
	}
}

func TestPerRecordBetaOverride(t *testing.T) {
	tr := trace.New("x", 1)
	tr.Add(0, trace.ComputeBeta(1, 1.0), trace.Compute(1)) // second uses global β
	o := Options{Beta: 0, FMax: 2.3, Freqs: []float64{1.15}}
	res := simOK(t, tr, flatPlatform(), o)
	// First burst: β=1 ⇒ ×2. Second: β=0 ⇒ ×1. Total 3.
	if math.Abs(res.Compute[0]-3) > 1e-12 {
		t.Errorf("Compute = %v, want 3", res.Compute[0])
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Two rendezvous sends facing each other: classic unsafe exchange.
	tr := trace.New("x", 2)
	tr.Add(0, trace.Send(1, 200, 0), trace.Recv(1, 200, 0))
	tr.Add(1, trace.Send(0, 200, 0), trace.Recv(0, 200, 0))
	_, err := Simulate(tr, flatPlatform(), DefaultOptions())
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	// The same exchange with eager messages is fine.
	tr2 := trace.New("x", 2)
	tr2.Add(0, trace.Send(1, 10, 0), trace.Recv(1, 10, 0))
	tr2.Add(1, trace.Send(0, 10, 0), trace.Recv(0, 10, 0))
	if _, err := Simulate(tr2, flatPlatform(), DefaultOptions()); err != nil {
		t.Fatalf("eager exchange should not deadlock: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(1))
	tr.Add(1, trace.Compute(1))
	if _, err := Simulate(tr, Platform{Bandwidth: -1}, DefaultOptions()); err == nil {
		t.Error("bad platform should error")
	}
	o := DefaultOptions()
	o.Freqs = []float64{1.0}
	if _, err := Simulate(tr, flatPlatform(), o); err == nil {
		t.Error("wrong freqs length should error")
	}
	o = DefaultOptions()
	o.Freqs = []float64{1.0, -1}
	if _, err := Simulate(tr, flatPlatform(), o); err == nil {
		t.Error("negative frequency should error")
	}
	o = DefaultOptions()
	o.FMax = 0
	if _, err := Simulate(tr, flatPlatform(), o); err == nil {
		t.Error("zero FMax should error")
	}
	o = DefaultOptions()
	o.Beta = 2
	if _, err := Simulate(tr, flatPlatform(), o); err == nil {
		t.Error("beta out of range should error")
	}
	bad := trace.New("x", 2)
	bad.Add(0, trace.Send(1, 10, 0)) // unmatched
	if _, err := Simulate(bad, flatPlatform(), DefaultOptions()); err == nil {
		t.Error("invalid trace should error")
	}
}

func TestTimelineSegments(t *testing.T) {
	tr := trace.New("x", 2)
	tr.Add(0, trace.Compute(1), trace.Send(1, 10, 0))
	tr.Add(1, trace.Recv(0, 10, 0), trace.Compute(2))
	o := DefaultOptions()
	o.RecordTimeline = true
	res := simOK(t, tr, flatPlatform(), o)
	if res.Timeline == nil {
		t.Fatal("timeline missing")
	}
	// Rank 1: comm [0, 11], compute [11, 13].
	segs := res.Timeline[1]
	if len(segs) != 2 {
		t.Fatalf("rank 1 segments = %+v", segs)
	}
	if segs[0].State != StateComm || math.Abs(segs[0].End-11) > 1e-12 {
		t.Errorf("seg0 = %+v", segs[0])
	}
	if segs[1].State != StateCompute || math.Abs(segs[1].End-13) > 1e-12 {
		t.Errorf("seg1 = %+v", segs[1])
	}
	// Segments must be non-overlapping and ordered.
	for r, ss := range res.Timeline {
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End-1e-12 {
				t.Errorf("rank %d overlapping segments %+v %+v", r, ss[i-1], ss[i])
			}
		}
	}
}

func TestIterMarkIsFree(t *testing.T) {
	tr := trace.New("x", 1)
	tr.Add(0, trace.IterMark(), trace.Compute(1), trace.IterMark())
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	if res.Time != 1 {
		t.Errorf("Time = %v, want 1", res.Time)
	}
}

// haloTrace builds a P-rank ring halo exchange with per-rank loads, using
// the even-send-first ordering real codes use to stay deadlock free.
func haloTrace(p int, loads []float64, bytes int64, iters int) *trace.Trace {
	tr := trace.New("halo", p)
	for it := 0; it < iters; it++ {
		for r := 0; r < p; r++ {
			right := (r + 1) % p
			left := (r - 1 + p) % p
			tr.Add(r, trace.Compute(loads[r]))
			if r%2 == 0 {
				tr.Add(r, trace.Send(right, bytes, it), trace.Recv(left, bytes, it))
			} else {
				tr.Add(r, trace.Recv(left, bytes, it), trace.Send(right, bytes, it))
			}
			tr.Add(r, trace.IterMark())
		}
	}
	return tr
}

func TestRingExchangeCompletes(t *testing.T) {
	loads := []float64{1, 2, 3, 4}
	tr := haloTrace(4, loads, 200, 3) // rendezvous-size messages
	res := simOK(t, tr, flatPlatform(), DefaultOptions())
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	// The most loaded rank computes 3×4 = 12s in total.
	if math.Abs(res.Compute[3]-12) > 1e-12 {
		t.Errorf("Compute[3] = %v", res.Compute[3])
	}
	if res.Time < 12 {
		t.Errorf("Time %v below critical path 12", res.Time)
	}
}

func TestDeterminism(t *testing.T) {
	loads := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	tr := haloTrace(8, loads, 50000, 5)
	r1 := simOK(t, tr, DefaultPlatform(), DefaultOptions())
	r2 := simOK(t, tr, DefaultPlatform(), DefaultOptions())
	if r1.Time != r2.Time {
		t.Errorf("non-deterministic time: %v vs %v", r1.Time, r2.Time)
	}
	for r := range r1.Compute {
		if r1.Compute[r] != r2.Compute[r] || r1.Finish[r] != r2.Finish[r] {
			t.Errorf("rank %d differs between runs", r)
		}
	}
}

// Property: the execution time is at least the slowest rank's compute time
// (critical path lower bound), for arbitrary load vectors.
func TestTimeAboveCriticalPathProperty(t *testing.T) {
	prop := func(rawLoads [6]float64) bool {
		loads := make([]float64, 6)
		for i, rl := range rawLoads {
			loads[i] = math.Abs(math.Mod(rl, 5)) + 0.1
		}
		tr := haloTrace(6, loads, 10, 2)
		res, err := Simulate(tr, DefaultPlatform(), DefaultOptions())
		if err != nil {
			return false
		}
		maxC := 0.0
		for _, c := range res.Compute {
			if c > maxC {
				maxC = c
			}
		}
		return res.Time >= maxC-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: lowering any rank's frequency never shortens the run.
func TestSlowerFrequencyNeverFasterProperty(t *testing.T) {
	loads := []float64{1, 1.5, 2, 2.5}
	tr := haloTrace(4, loads, 10, 2)
	base, err := Simulate(tr, DefaultPlatform(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rankRaw uint8, fRaw float64) bool {
		rank := int(rankRaw) % 4
		f := 0.8 + math.Mod(math.Abs(fRaw), 1.5)
		o := DefaultOptions()
		o.Freqs = []float64{2.3, 2.3, 2.3, 2.3}
		o.Freqs[rank] = f
		res, err := Simulate(tr, DefaultPlatform(), o)
		if err != nil {
			return false
		}
		return res.Time >= base.Time-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// simulateShapes are the option shapes Simulate answers by recording the
// FMax replay and retiming it once.
func simulateShapes(n int) map[string]Options {
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = 1.4
	}
	withFreqs, withTimeline := DefaultOptions(), DefaultOptions()
	withFreqs.Freqs = freqs
	withTimeline.RecordTimeline = true
	both := withFreqs
	both.RecordTimeline = true
	return map[string]Options{"freqs": withFreqs, "timeline": withTimeline, "freqs+timeline": both}
}

// TestSimulateCrossesNoFaultPoint pins that Simulate's recording and retime
// are internal: no shape crosses the skeleton-build or retime fault point,
// which belong to BuildSkeleton and the public retime tiers. A rate of
// MaxUint64 counts every crossing without firing.
func TestSimulateCrossesNoFaultPoint(t *testing.T) {
	reg := faults.NewRegistry(1, map[faults.Point]uint64{faults.SkeletonBuild: math.MaxUint64, faults.Retime: math.MaxUint64})
	faults.Enable(reg)
	t.Cleanup(faults.Disable)
	tr := randomValidTrace(5, 4, 2, DefaultPlatform().EagerLimit)
	for name, o := range simulateShapes(4) {
		if _, err := Simulate(tr, DefaultPlatform(), o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for p, st := range reg.Stats() {
		if st.Checks != 0 {
			t.Errorf("Simulate crossed %s %d times, want 0", p, st.Checks)
		}
	}
	// The registry does count the public entry points.
	sk, err := BuildSkeleton(tr, DefaultPlatform(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Retime(nil, false); err != nil {
		t.Fatal(err)
	}
	for p, st := range reg.Stats() {
		if st.Checks != 1 {
			t.Errorf("BuildSkeleton then Retime crossed %s %d times, want 1", p, st.Checks)
		}
	}
}

// TestSimulateDeadlockStageUnderFreqs pins that a recorded Simulate reports
// a deadlock exactly as the plain replay does: same text, retime stage.
func TestSimulateDeadlockStageUnderFreqs(t *testing.T) {
	tr := trace.New("dl", 2)
	tr.Add(0, trace.Send(1, 200, 0), trace.Recv(1, 200, 0))
	tr.Add(1, trace.Send(0, 200, 0), trace.Recv(0, 200, 0))
	_, plain := Simulate(tr, flatPlatform(), DefaultOptions())
	if !errors.Is(plain, ErrDeadlock) {
		t.Fatalf("plain replay: err = %v, want deadlock", plain)
	}
	for name, o := range simulateShapes(2) {
		_, err := Simulate(tr, flatPlatform(), o)
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: err = %v, want deadlock", name, err)
		}
		if err.Error() != plain.Error() {
			t.Errorf("%s: diagnostic %q, plain replay %q", name, err, plain)
		}
		if st, _ := stagerr.StageOf(err); st != stagerr.Retime {
			t.Errorf("%s: stage %q, want %q", name, st, stagerr.Retime)
		}
	}
}

// TestSimulateRejectsBadFreqsBeforeReplay pins the check order: invalid
// frequencies fail at the validate stage before any replay runs, so a
// trace that would deadlock reports the frequencies, not the deadlock.
func TestSimulateRejectsBadFreqsBeforeReplay(t *testing.T) {
	tr := trace.New("dl", 2)
	tr.Add(0, trace.Send(1, 200, 0), trace.Recv(1, 200, 0))
	tr.Add(1, trace.Send(0, 200, 0), trace.Recv(0, 200, 0))
	for _, freqs := range [][]float64{{2.3}, {2.3, 0}, {math.NaN(), 2.3}, {2.3, math.Inf(1)}} {
		o := DefaultOptions()
		o.Freqs = freqs
		o.RecordTimeline = true
		_, err := Simulate(tr, flatPlatform(), o)
		if err == nil || errors.Is(err, ErrDeadlock) {
			t.Fatalf("freqs %v: err = %v, want a validate error", freqs, err)
		}
		if st, _ := stagerr.StageOf(err); st != stagerr.Validate {
			t.Errorf("freqs %v: stage %q, want %q", freqs, st, stagerr.Validate)
		}
	}
}
