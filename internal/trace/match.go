package trace

import (
	"fmt"
	"math"
)

// Channels is the point-to-point channel table of a valid trace. Every
// (src, dst, tag) triple gets a dense id in order of first appearance,
// scanning the ranks in order and each rank's records in program order.
type Channels struct {
	// Of holds each record's channel id, indexed [rank][record]; -1 for a
	// record that is not a send or a receive.
	Of [][]int32
	// Src is each channel's sending rank.
	Src []int32
	// Sends is each channel's message count (its receive count is equal).
	Sends []int32
	// Colls is the number of collectives every rank calls.
	Colls int
}

type chanKey struct {
	src, dst int32
	tag      int
}

// chanCount is one channel while the trace is scanned: its key and how many
// sends and receives it has seen.
type chanCount struct {
	chanKey
	sends, recvs int32
}

// Match checks the trace as Validate documents and builds its channel table
// in the same pass. It reports the first failure in a fixed order: record
// checks in rank and program order, then point-to-point matching channel
// by channel in id order, then collective agreement rank by rank. Byte
// counts are compared through one flat arena of send sizes, laid out by
// channel.
func (t *Trace) Match() (*Channels, error) {
	n := len(t.Ranks)
	if n == 0 {
		return nil, ErrNoRanks
	}
	of := make([]int32, t.NumRecords())
	ch := &Channels{Of: make([][]int32, n)}
	ids := make(map[chanKey]int32)
	// recent[2*peer+dir] is the channel of the scanned rank's last record
	// with that peer and direction (0 send, 1 receive), stamped with
	// rank+1. It answers most lookups without hashing: a rank usually
	// repeats a tag on each pair.
	recent := make([]struct{ rank1, id int32 }, 2*n)
	var (
		chans   []chanCount
		colls   []Record // rank 0's collective sequence
		collErr error    // first collective disagreement, reported last
	)
	for r, recs := range t.Ranks {
		co := of[:len(recs):len(recs)]
		of = of[len(recs):]
		ch.Of[r] = co
		ncoll, badColl := 0, -1 // badColl: ordinal of the first call differing from rank 0's
		var badRec Record
		for i, rec := range recs {
			co[i] = -1
			switch rec.Kind {
			case KindCompute:
				if rec.Duration < 0 || math.IsNaN(rec.Duration) || math.IsInf(rec.Duration, 1) {
					return nil, fmt.Errorf("%w: rank %d record %d (%v)", ErrNegativeBurst, r, i, rec.Duration)
				}
				if math.IsNaN(rec.Beta) || math.IsInf(rec.Beta, 1) {
					return nil, fmt.Errorf("%w: rank %d record %d (%v)", ErrBadBetaOverride, r, i, rec.Beta)
				}
			case KindSend, KindRecv:
				if rec.Peer < 0 || rec.Peer >= n {
					return nil, fmt.Errorf("%w: rank %d record %d peer %d", ErrBadPeer, r, i, rec.Peer)
				}
				if rec.Peer == r {
					return nil, fmt.Errorf("%w: rank %d record %d", ErrSelfMessage, r, i)
				}
				if rec.Bytes < 0 {
					return nil, fmt.Errorf("%w: rank %d record %d", ErrNegativeSize, r, i)
				}
				k, slot := chanKey{int32(r), int32(rec.Peer), rec.Tag}, 2*rec.Peer
				if rec.Kind == KindRecv {
					k, slot = chanKey{int32(rec.Peer), int32(r), rec.Tag}, slot+1
				}
				id := recent[slot].id
				if recent[slot].rank1 != int32(r+1) || chans[id].tag != rec.Tag {
					var ok bool
					if id, ok = ids[k]; !ok {
						id = int32(len(chans))
						ids[k] = id
						chans = append(chans, chanCount{chanKey: k})
					}
					recent[slot].rank1, recent[slot].id = int32(r+1), id
				}
				co[i] = id
				if rec.Kind == KindSend {
					chans[id].sends++
				} else {
					chans[id].recvs++
				}
			case KindColl:
				if rec.Bytes < 0 {
					return nil, fmt.Errorf("%w: rank %d record %d", ErrNegativeSize, r, i)
				}
				if rec.Coll >= collMax {
					return nil, fmt.Errorf("trace: rank %d record %d: unknown collective %d", r, i, rec.Coll)
				}
				if r == 0 {
					colls = append(colls, rec)
				} else if badColl < 0 && ncoll < len(colls) && (rec.Coll != colls[ncoll].Coll || rec.Bytes != colls[ncoll].Bytes) {
					badColl, badRec = ncoll, rec
				}
				ncoll++
			case KindIterMark:
				// no payload
			default:
				return nil, fmt.Errorf("trace: rank %d record %d: unknown kind %d", r, i, rec.Kind)
			}
		}
		if r > 0 && collErr == nil {
			collErr = collMismatch(r, ncoll, badColl, badRec, colls)
		}
	}
	ch.Colls = len(colls)
	ch.Src = make([]int32, len(chans))
	ch.Sends = make([]int32, len(chans))
	for c, cc := range chans {
		ch.Src[c], ch.Sends[c] = cc.src, cc.sends
	}
	if err := ch.matchBytes(t, chans); err != nil {
		return nil, err
	}
	if collErr != nil {
		return nil, collErr
	}
	return ch, nil
}

// collMismatch returns rank r's disagreement with rank 0's collective
// sequence, if any: its count first, then its first differing call, number
// badColl (-1 when none), which is got.
func collMismatch(r, ncoll, badColl int, got Record, colls []Record) error {
	if ncoll != len(colls) {
		return fmt.Errorf("%w: rank %d has %d collectives, rank 0 has %d",
			ErrCollMismatch, r, ncoll, len(colls))
	}
	if badColl < 0 {
		return nil
	}
	want := colls[badColl]
	if got.Coll != want.Coll {
		return fmt.Errorf("%w: collective %d: rank %d calls %v, rank 0 calls %v",
			ErrCollMismatch, badColl, r, got.Coll, want.Coll)
	}
	return fmt.Errorf("%w: collective %d: rank %d carries %d bytes, rank 0 carries %d",
		ErrCollMismatch, badColl, r, got.Bytes, want.Bytes)
}

// matchBytes checks that every channel carries as many receives as sends,
// each of the byte count of its send (MPI matches in order per channel),
// and reports the lowest-numbered channel that does not.
func (ch *Channels) matchBytes(t *Trace, chans []chanCount) error {
	bad := len(chans) // first channel whose counts differ
	for c, cc := range chans {
		if cc.sends != cc.recvs {
			bad = c
			break
		}
	}
	base := make([]int32, len(chans)+1)
	for c, cc := range chans {
		base[c+1] = base[c] + cc.sends
	}
	arena := make([]int64, base[len(chans)])
	fill := make([]int32, len(chans))
	for r, recs := range t.Ranks {
		for i, c := range ch.Of[r] {
			if c >= 0 && recs[i].Kind == KindSend {
				arena[base[c]+fill[c]] = recs[i].Bytes
				fill[c]++
			}
		}
	}
	clear(fill)
	badMsg, badRecv := -1, int64(0)
	for r, recs := range t.Ranks {
		for i, c := range ch.Of[r] {
			if c < 0 || recs[i].Kind != KindRecv || int(c) >= bad {
				continue
			}
			if got := recs[i].Bytes; got != arena[base[c]+fill[c]] {
				bad, badMsg, badRecv = int(c), int(fill[c]), got
			}
			fill[c]++
		}
	}
	if bad == len(chans) {
		return nil
	}
	cc := chans[bad]
	switch {
	case badMsg >= 0:
		return fmt.Errorf("%w: channel %d→%d tag %d message %d: %d bytes sent, %d expected",
			ErrUnmatchedP2P, cc.src, cc.dst, cc.tag, badMsg, arena[base[bad]+int32(badMsg)], badRecv)
	case cc.sends == 0:
		return fmt.Errorf("%w: channel %d→%d tag %d has %d recvs but no sends",
			ErrUnmatchedP2P, cc.src, cc.dst, cc.tag, cc.recvs)
	default:
		return fmt.Errorf("%w: channel %d→%d tag %d has %d sends but %d recvs",
			ErrUnmatchedP2P, cc.src, cc.dst, cc.tag, cc.sends, cc.recvs)
	}
}
