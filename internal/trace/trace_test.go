package trace

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// pingPong builds a minimal valid 2-rank trace.
func pingPong() *Trace {
	t := New("pingpong", 2)
	t.Add(0, Compute(1.0), Send(1, 1024, 7), Recv(1, 64, 8), IterMark())
	t.Add(1, Compute(0.5), Recv(0, 1024, 7), Send(0, 64, 8), IterMark())
	return t
}

func TestConstructorsAndAccessors(t *testing.T) {
	tr := pingPong()
	if tr.NumRanks() != 2 {
		t.Fatalf("NumRanks = %d", tr.NumRanks())
	}
	if tr.NumRecords() != 8 {
		t.Fatalf("NumRecords = %d", tr.NumRecords())
	}
	ct := tr.ComputeTimes()
	if ct[0] != 1.0 || ct[1] != 0.5 {
		t.Fatalf("ComputeTimes = %v", ct)
	}
	if tr.Iterations() != 1 {
		t.Fatalf("Iterations = %d", tr.Iterations())
	}
}

func TestRecordConstructors(t *testing.T) {
	c := Compute(2)
	if c.Kind != KindCompute || c.Duration != 2 || c.Beta >= 0 {
		t.Errorf("Compute: %+v", c)
	}
	cb := ComputeBeta(2, 0.7)
	if cb.Beta != 0.7 {
		t.Errorf("ComputeBeta: %+v", cb)
	}
	s := Send(3, 100, 1)
	if s.Kind != KindSend || s.Peer != 3 || s.Bytes != 100 || s.Tag != 1 {
		t.Errorf("Send: %+v", s)
	}
	r := Recv(2, 50, 9)
	if r.Kind != KindRecv || r.Peer != 2 {
		t.Errorf("Recv: %+v", r)
	}
	g := Coll(CollAllReduce, 8)
	if g.Kind != KindColl || g.Coll != CollAllReduce || g.Bytes != 8 {
		t.Errorf("Coll: %+v", g)
	}
	if IterMark().Kind != KindIterMark {
		t.Error("IterMark kind")
	}
}

func TestKindAndCollectiveStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindCompute: "compute", KindSend: "send", KindRecv: "recv",
		KindColl: "coll", KindIterMark: "iter",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
	for c := CollBarrier; c < collMax; c++ {
		got, err := ParseCollective(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCollective(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCollective("nonsense"); err == nil {
		t.Error("ParseCollective should reject unknown names")
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := pingPong().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	// Collectives on all ranks, same order.
	tr := New("coll", 3)
	for r := 0; r < 3; r++ {
		tr.Add(r, Compute(1), Coll(CollAllReduce, 8), Coll(CollBarrier, 0))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("collective trace rejected: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Trace
		wantErr error
	}{
		{"no ranks", func() *Trace { return New("x", 0) }, ErrNoRanks},
		{"peer out of range", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Send(5, 10, 0))
			return tr
		}, ErrBadPeer},
		{"self message", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Send(0, 10, 0))
			return tr
		}, ErrSelfMessage},
		{"negative burst", func() *Trace {
			tr := New("x", 1)
			tr.Add(0, Compute(-1))
			return tr
		}, ErrNegativeBurst},
		{"negative size", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Send(1, -5, 0))
			return tr
		}, ErrNegativeSize},
		{"unmatched send", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Send(1, 10, 0))
			return tr
		}, ErrUnmatchedP2P},
		{"unmatched recv", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Recv(1, 10, 0))
			return tr
		}, ErrUnmatchedP2P},
		{"size mismatch", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Send(1, 10, 0))
			tr.Add(1, Recv(0, 20, 0))
			return tr
		}, ErrUnmatchedP2P},
		{"collective count mismatch", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Coll(CollBarrier, 0))
			return tr
		}, ErrCollMismatch},
		{"collective kind mismatch", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Coll(CollBarrier, 0))
			tr.Add(1, Coll(CollAllReduce, 8))
			return tr
		}, ErrCollMismatch},
		{"collective payload mismatch", func() *Trace {
			tr := New("x", 2)
			tr.Add(0, Coll(CollAllReduce, 8))
			tr.Add(1, Coll(CollAllReduce, 16))
			return tr
		}, ErrCollMismatch},
		{"NaN duration", func() *Trace {
			tr := New("x", 1)
			tr.Add(0, Compute(math.NaN()))
			return tr
		}, ErrNegativeBurst},
		{"infinite duration", func() *Trace {
			tr := New("x", 1)
			tr.Add(0, Compute(math.Inf(1)))
			return tr
		}, ErrNegativeBurst},
		{"NaN beta override", func() *Trace {
			tr := New("x", 1)
			tr.Add(0, ComputeBeta(1, math.NaN()))
			return tr
		}, ErrBadBetaOverride},
		{"infinite beta override", func() *Trace {
			tr := New("x", 1)
			tr.Add(0, ComputeBeta(1, math.Inf(1)))
			return tr
		}, ErrBadBetaOverride},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.build().Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("got %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSlice(t *testing.T) {
	tr := New("iters", 2)
	for r := 0; r < 2; r++ {
		for it := 0; it < 5; it++ {
			tr.Add(r, Compute(float64(it+1)), IterMark())
		}
	}
	sub, err := tr.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ct := sub.ComputeTimes()
	// Iterations 1 and 2 contribute 2+3 = 5 per rank.
	if ct[0] != 5 || ct[1] != 5 {
		t.Fatalf("sliced compute times = %v", ct)
	}
	if sub.Iterations() != 2 {
		t.Fatalf("sliced iterations = %d", sub.Iterations())
	}
	if _, err := tr.Slice(2, 2); err == nil {
		t.Error("empty range should error")
	}
	if _, err := tr.Slice(-1, 2); err == nil {
		t.Error("negative start should error")
	}
	if _, err := tr.Slice(0, 9); err == nil {
		t.Error("beyond available iterations should error")
	}
}

// TestSliceSharesRecords pins the copy-free Slice: every range holds the
// records a copying filter keeps, and appending to a slice never writes
// into its parent.
func TestSliceSharesRecords(t *testing.T) {
	tr := New("iters", 3)
	for r := 0; r < 3; r++ {
		for it := 0; it < 4; it++ {
			for k := 0; k <= r; k++ {
				tr.Add(r, Compute(float64(10*it+k)))
			}
			tr.Add(r, IterMark())
		}
		tr.Add(r, Compute(99)) // trailing records after the last marker
	}
	for from := 0; from < 4; from++ {
		for to := from + 1; to <= 4; to++ {
			sub, err := tr.Slice(from, to)
			if err != nil {
				t.Fatal(err)
			}
			for r, recs := range tr.Ranks {
				var want []Record
				iter := 0
				for _, rec := range recs {
					if iter >= from && iter < to {
						want = append(want, rec)
					}
					if rec.Kind == KindIterMark {
						iter++
					}
				}
				if !reflect.DeepEqual(sub.Ranks[r], want) {
					t.Fatalf("Slice(%d, %d) rank %d = %v, want %v", from, to, r, sub.Ranks[r], want)
				}
			}
		}
	}
	sub, err := tr.Slice(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 holds a burst and a marker per iteration: the slice is
	// records 2 and 3, and record 4 follows it in the parent.
	next := tr.Ranks[0][4]
	sub.Add(0, Compute(-1))
	if tr.Ranks[0][4] != next {
		t.Fatal("Add on a slice wrote into its parent")
	}
}

func TestScaleCompute(t *testing.T) {
	tr := pingPong()
	scaled := tr.ScaleCompute(func(rank int, rec Record) float64 {
		if rank == 1 {
			return 2.0
		}
		return 1.0
	})
	ct := scaled.ComputeTimes()
	if ct[0] != 1.0 || ct[1] != 1.0 {
		t.Fatalf("scaled compute times = %v", ct)
	}
	// Original unchanged.
	orig := tr.ComputeTimes()
	if orig[1] != 0.5 {
		t.Fatal("ScaleCompute mutated the source trace")
	}
	// Communication untouched.
	if scaled.Ranks[0][1] != tr.Ranks[0][1] {
		t.Fatal("ScaleCompute changed a send record")
	}
}

func TestIterationsWithoutMarkers(t *testing.T) {
	tr := New("x", 2)
	tr.Add(0, Compute(1))
	tr.Add(1, Compute(1))
	if tr.Iterations() != 0 {
		t.Fatalf("Iterations = %d, want 0", tr.Iterations())
	}
}

func TestComputeTimesIgnoresNonCompute(t *testing.T) {
	tr := New("x", 1)
	tr.Add(0, Coll(CollBarrier, 0), IterMark())
	ct := tr.ComputeTimes()
	if ct[0] != 0 {
		t.Fatalf("ComputeTimes = %v", ct)
	}
	if math.IsNaN(ct[0]) {
		t.Fatal("NaN compute time")
	}
}
