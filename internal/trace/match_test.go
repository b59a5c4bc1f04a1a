package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestValidateUnmatchedChannelIsDeterministic is the regression test for
// the map-ordered choice of which unmatched channel Validate named: with
// two unmatched channels, every call must name the first in order of
// appearance.
func TestValidateUnmatchedChannelIsDeterministic(t *testing.T) {
	tr := New("two-holes", 4)
	tr.Add(0, Send(1, 8, 0))
	tr.Add(2, Send(3, 8, 0))
	first := tr.Validate()
	if !errors.Is(first, ErrUnmatchedP2P) {
		t.Fatalf("Validate = %v, want ErrUnmatchedP2P", first)
	}
	want := "trace: unmatched point-to-point records: channel 0→1 tag 0 has 1 sends but 0 recvs"
	if first.Error() != want {
		t.Fatalf("Validate = %q, want %q", first, want)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", i, err, want)
		}
	}
}

// TestMatchChannelTable checks the table Match builds: dense ids in order
// of first appearance (a receive can open a channel), sending ranks, send
// counts, -1 for other records, and the collective count.
func TestMatchChannelTable(t *testing.T) {
	tr := New("table", 3)
	tr.Add(0, Recv(2, 4, 1), Compute(1), Send(1, 8, 0), Send(1, 8, 0), Coll(CollBarrier, 0))
	tr.Add(1, Recv(0, 8, 0), Recv(0, 8, 0), Coll(CollBarrier, 0))
	tr.Add(2, Send(0, 4, 1), IterMark(), Coll(CollBarrier, 0))
	ch, err := tr.Match()
	if err != nil {
		t.Fatal(err)
	}
	wantOf := [][]int32{{0, -1, 1, 1, -1}, {1, 1, -1}, {0, -1, -1}}
	if fmt.Sprint(ch.Of) != fmt.Sprint(wantOf) {
		t.Errorf("Of = %v, want %v", ch.Of, wantOf)
	}
	if fmt.Sprint(ch.Src, ch.Sends, ch.Colls) != "[2 0] [1 2] 1" {
		t.Errorf("Src, Sends, Colls = %v %v %v, want [2 0] [1 2] 1", ch.Src, ch.Sends, ch.Colls)
	}
}

// TestMatchAgreesWithReference replays seeded random traces, most of them
// broken by a few mutations, through Match and the map-based Validate it
// replaced. The verdicts must agree, and so must every error text, except
// that for unmatched channels Match must name the first failing channel in
// order of appearance where the reference names any.
func TestMatchAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var valid, unmatched int
	for i := 0; i < 5000; i++ {
		tr := randomTrace(rng)
		got, want := tr.Validate(), validateReference(tr)
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("trace %d %v: Validate = %v, reference %v", i, tr.Ranks, got, want)
		case want == nil:
			valid++
		case errors.Is(want, ErrUnmatchedP2P):
			unmatched++
			if exp := firstUnmatched(tr); got.Error() != exp {
				t.Fatalf("trace %d %v: Validate = %q, want %q (reference %q)", i, tr.Ranks, got, exp, want)
			}
		case got.Error() != want.Error():
			t.Fatalf("trace %d %v: Validate = %q, reference %q", i, tr.Ranks, got, want)
		}
	}
	if valid < 500 || unmatched < 500 {
		t.Fatalf("generator coverage: %d valid, %d unmatched of 5000", valid, unmatched)
	}
}

// randomTrace builds a small matched trace and applies up to three random
// mutations to it.
func randomTrace(rng *rand.Rand) *Trace {
	n := 1 + rng.Intn(4)
	tr := New("rand", n)
	for m := rng.Intn(10); m > 0 && n > 1; m-- {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		tag, size := rng.Intn(3), int64(8*(1+rng.Intn(2)))
		tr.Add(src, Send(dst, size, tag))
		tr.Add(dst, Recv(src, size, tag))
		if rng.Intn(3) == 0 {
			tr.Add(rng.Intn(n), ComputeBeta(rng.Float64(), rng.Float64()))
		}
	}
	for c := rng.Intn(3); c > 0; c-- {
		op, size := Collective(rng.Intn(int(collMax))), int64(8*rng.Intn(2))
		for r := 0; r < n; r++ {
			tr.Add(r, Coll(op, size))
		}
	}
	for r := 0; r < n; r++ {
		tr.Add(r, IterMark())
	}
	for k := rng.Intn(4); k > 0; k-- {
		r := rng.Intn(n)
		recs := tr.Ranks[r]
		if len(recs) == 0 {
			continue
		}
		i := rng.Intn(len(recs))
		rec := &recs[i]
		switch rng.Intn(10) {
		case 0:
			rec.Bytes += 8
		case 1:
			rec.Bytes = -1
		case 2:
			rec.Tag++
		case 3:
			rec.Peer = rng.Intn(n+2) - 1
		case 4:
			rec.Duration = []float64{-1, math.NaN(), math.Inf(1)}[rng.Intn(3)]
		case 5:
			rec.Beta = math.NaN()
		case 6:
			rec.Coll = Collective(rng.Intn(int(collMax) + 1))
		case 7:
			rec.Kind = Kind(rng.Intn(6))
		default:
			tr.Ranks[r] = append(recs[:i:i], recs[i+1:]...)
		}
	}
	return tr
}

// firstUnmatched is Match's unmatched-channel message computed the slow
// way: each channel's send and receive sizes in order of appearance, and
// the first channel whose lists differ.
func firstUnmatched(tr *Trace) string {
	type key struct{ src, dst, tag int }
	var order []key
	sends, recvs := map[key][]int64{}, map[key][]int64{}
	for r, recs := range tr.Ranks {
		for _, rec := range recs {
			k, m := key{r, rec.Peer, rec.Tag}, sends
			switch rec.Kind {
			case KindRecv:
				k, m = key{rec.Peer, r, rec.Tag}, recvs
			case KindSend:
			default:
				continue
			}
			if _, ok := sends[k]; !ok {
				if _, ok := recvs[k]; !ok {
					order = append(order, k)
				}
			}
			m[k] = append(m[k], rec.Bytes)
		}
	}
	for _, k := range order {
		ss, rs := sends[k], recvs[k]
		prefix := fmt.Sprintf("%v: channel %d→%d tag %d ", ErrUnmatchedP2P, k.src, k.dst, k.tag)
		switch {
		case len(ss) == 0:
			return prefix + fmt.Sprintf("has %d recvs but no sends", len(rs))
		case len(ss) != len(rs):
			return prefix + fmt.Sprintf("has %d sends but %d recvs", len(ss), len(rs))
		}
		for i := range ss {
			if ss[i] != rs[i] {
				return prefix + fmt.Sprintf("message %d: %d bytes sent, %d expected", i, ss[i], rs[i])
			}
		}
	}
	return "no unmatched channel"
}
