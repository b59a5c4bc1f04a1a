package trace

// validateReference is the map-based Validate that Match replaced, kept
// verbatim (modulo renames) as the oracle for TestMatchAgreesWithReference.
// It differs from Match in one way only: when several channels are
// unmatched it names whichever its map iteration reaches first.

import (
	"fmt"
	"math"
)

func validateReference(t *Trace) error {
	if len(t.Ranks) == 0 {
		return ErrNoRanks
	}
	n := len(t.Ranks)
	type p2pKey struct {
		src, dst, tag int
	}
	sends := map[p2pKey][]int64{}
	recvs := map[p2pKey][]int64{}
	var collSeq [][]Record // per rank
	for r, recs := range t.Ranks {
		var cs []Record
		for i, rec := range recs {
			switch rec.Kind {
			case KindCompute:
				if rec.Duration < 0 || math.IsNaN(rec.Duration) || math.IsInf(rec.Duration, 1) {
					return fmt.Errorf("%w: rank %d record %d (%v)", ErrNegativeBurst, r, i, rec.Duration)
				}
				if math.IsNaN(rec.Beta) || math.IsInf(rec.Beta, 1) {
					return fmt.Errorf("%w: rank %d record %d (%v)", ErrBadBetaOverride, r, i, rec.Beta)
				}
			case KindSend, KindRecv:
				if rec.Peer < 0 || rec.Peer >= n {
					return fmt.Errorf("%w: rank %d record %d peer %d", ErrBadPeer, r, i, rec.Peer)
				}
				if rec.Peer == r {
					return fmt.Errorf("%w: rank %d record %d", ErrSelfMessage, r, i)
				}
				if rec.Bytes < 0 {
					return fmt.Errorf("%w: rank %d record %d", ErrNegativeSize, r, i)
				}
				if rec.Kind == KindSend {
					k := p2pKey{r, rec.Peer, rec.Tag}
					sends[k] = append(sends[k], rec.Bytes)
				} else {
					k := p2pKey{rec.Peer, r, rec.Tag}
					recvs[k] = append(recvs[k], rec.Bytes)
				}
			case KindColl:
				if rec.Bytes < 0 {
					return fmt.Errorf("%w: rank %d record %d", ErrNegativeSize, r, i)
				}
				if rec.Coll >= collMax {
					return fmt.Errorf("trace: rank %d record %d: unknown collective %d", r, i, rec.Coll)
				}
				cs = append(cs, Record{Kind: KindColl, Coll: rec.Coll, Bytes: rec.Bytes})
			case KindIterMark:
				// no payload
			default:
				return fmt.Errorf("trace: rank %d record %d: unknown kind %d", r, i, rec.Kind)
			}
		}
		collSeq = append(collSeq, cs)
	}
	// P2P matching: per (src,dst,tag) channel the send and recv sequences
	// must agree element-wise (MPI guarantees in-order matching per channel).
	for k, ss := range sends {
		rs := recvs[k]
		if len(ss) != len(rs) {
			return fmt.Errorf("%w: channel %d→%d tag %d has %d sends but %d recvs",
				ErrUnmatchedP2P, k.src, k.dst, k.tag, len(ss), len(rs))
		}
		for i := range ss {
			if ss[i] != rs[i] {
				return fmt.Errorf("%w: channel %d→%d tag %d message %d: %d bytes sent, %d expected",
					ErrUnmatchedP2P, k.src, k.dst, k.tag, i, ss[i], rs[i])
			}
		}
	}
	for k, rs := range recvs {
		if _, ok := sends[k]; !ok && len(rs) > 0 {
			return fmt.Errorf("%w: channel %d→%d tag %d has %d recvs but no sends",
				ErrUnmatchedP2P, k.src, k.dst, k.tag, len(rs))
		}
	}
	// Collective agreement: all ranks must call the same collectives in the
	// same order with the same parameters.
	for r := 1; r < n; r++ {
		if len(collSeq[r]) != len(collSeq[0]) {
			return fmt.Errorf("%w: rank %d has %d collectives, rank 0 has %d",
				ErrCollMismatch, r, len(collSeq[r]), len(collSeq[0]))
		}
		for i := range collSeq[r] {
			if collSeq[r][i].Coll != collSeq[0][i].Coll {
				return fmt.Errorf("%w: collective %d: rank %d calls %v, rank 0 calls %v",
					ErrCollMismatch, i, r, collSeq[r][i].Coll, collSeq[0][i].Coll)
			}
			if collSeq[r][i].Bytes != collSeq[0][i].Bytes {
				return fmt.Errorf("%w: collective %d: rank %d carries %d bytes, rank 0 carries %d",
					ErrCollMismatch, i, r, collSeq[r][i].Bytes, collSeq[0][i].Bytes)
			}
		}
	}
	return nil
}
