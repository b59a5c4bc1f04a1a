package dimemas

// Batch retiming: scoring N gear vectors one Retime at a time decodes the
// op stream N times. RetimeBatch walks the schedule once and carries every
// candidate's clocks side by side in struct-of-arrays layout (rank-major,
// candidates contiguous), so the per-op dispatch, index arithmetic and
// branch pattern are amortized across the whole batch and the inner loops
// are straight-line passes over adjacent floats. Per candidate the
// arithmetic — operand order, comparison order, everything — is exactly
// Skeleton.walk's, so every candidate's row is bit-identical to Retime.

import (
	"sync"

	"repro/internal/faults"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
)

// batchChunk bounds how many candidates one schedule walk carries: enough
// to amortize op decode, small enough that the per-slot arena scratch
// (nslots × chunk floats) stays cache- and memory-friendly for any trace.
const batchChunk = 64

// maxBatchSlotScratch caps the arena scratch at 16 MiB of float64s; the
// chunk width shrinks for traces with enormous send counts.
const maxBatchSlotScratch = 1 << 21

// BatchResult holds the retimed outcome of every candidate of one
// RetimeBatch call. Compute and Finish are candidate-major flat arrays
// (candidate c, rank r at index c*NumRanks+r); At returns a per-candidate
// Result view sharing the backing arrays.
type BatchResult struct {
	NumCandidates int
	NumRanks      int
	// Time[c] is candidate c's application execution time.
	Time []float64
	// Compute[c*NumRanks+r] is rank r's compute time under candidate c.
	Compute []float64
	// Finish[c*NumRanks+r] is rank r's local finish time under candidate c.
	Finish []float64
}

// At returns candidate c's outcome as a Result whose Compute/Finish slices
// alias the batch arrays (no copy; Timeline is always nil). The view stays
// valid as long as the BatchResult's arrays are not reused.
func (b *BatchResult) At(c int) Result {
	n := b.NumRanks
	return Result{
		Time:    b.Time[c],
		Compute: b.Compute[c*n : (c+1)*n : (c+1)*n],
		Finish:  b.Finish[c*n : (c+1)*n : (c+1)*n],
	}
}

// batchContext is the pooled per-call scratch: rank-major clock/comp/slot
// planes plus per-candidate resolved frequencies and slowdowns.
type batchContext struct {
	clock []float64 // nranks × width
	comp  []float64 // nranks × width
	sd    []float64 // nranks × width
	freq  []float64 // nranks × width
	slot  []float64 // nslots × width
	maxv  []float64 // width: running collective arrival max
}

var batchPool = sync.Pool{New: func() any { return new(batchContext) }}

// RetimeBatch re-times every frequency vector in freqSets in chunked
// struct-of-arrays walks over the skeleton and returns a freshly allocated
// BatchResult. Each candidate follows Retime's semantics and validation
// exactly — a nil entry means every rank at FMax — and its row is
// bit-identical to Retime(freqSets[c], false). Safe for concurrent use.
func (s *Skeleton) RetimeBatch(freqSets [][]float64) (*BatchResult, error) {
	res := &BatchResult{}
	if err := s.RetimeBatchInto(res, freqSets); err != nil {
		return nil, err
	}
	return res, nil
}

// RetimeBatchInto is RetimeBatch writing into a caller-owned BatchResult,
// reusing its backing arrays; the steady state allocates nothing.
func (s *Skeleton) RetimeBatchInto(res *BatchResult, freqSets [][]float64) error {
	n := s.nranks
	for c, freqs := range freqSets {
		if err := checkFreqs(freqs, n); err != nil {
			return stagerr.Errorf(stagerr.Validate, "dimemas: candidate %d: %v", c, err)
		}
	}
	if err := faults.Check(faults.Retime); err != nil {
		return stagerr.Wrap(stagerr.Retime, err)
	}

	ncand := len(freqSets)
	res.NumCandidates = ncand
	res.NumRanks = n
	res.Time = grow(res.Time, ncand)
	res.Compute = grow(res.Compute, ncand*n)
	res.Finish = grow(res.Finish, ncand*n)

	width := batchChunk
	if ncand < width {
		width = ncand
	}
	for width > 4 && s.nslots*width > maxBatchSlotScratch {
		width /= 2
	}
	if width == 0 {
		return nil
	}

	bc := batchPool.Get().(*batchContext)
	defer batchPool.Put(bc)
	bc.sd = grow(bc.sd, n*width)
	bc.freq = grow(bc.freq, n*width)
	bc.slot = grow(bc.slot, s.nslots*width)
	bc.maxv = grow(bc.maxv, width)

	for c0 := 0; c0 < ncand; c0 += width {
		k := width
		if rem := ncand - c0; rem < k {
			k = rem
		}
		s.retimeChunk(bc, res, freqSets, c0, k, width)
	}
	return nil
}

// retimeChunk walks the whole schedule once for candidates [c0, c0+k),
// laid out rank-major with stride `width` (k may be a short tail).
func (s *Skeleton) retimeChunk(bc *batchContext, res *BatchResult, freqSets [][]float64, c0, k, width int) {
	n := s.nranks
	bc.clock = resetSlice(bc.clock, n*width)
	bc.comp = resetSlice(bc.comp, n*width)
	clock, comp, sd, freq, slot, maxv := bc.clock, bc.comp, bc.sd, bc.freq, bc.slot, bc.maxv

	for r := 0; r < n; r++ {
		base := r * width
		for j := 0; j < k; j++ {
			f := s.fmax
			if fs := freqSets[c0+j]; fs != nil {
				f = fs[r]
			}
			freq[base+j] = f
			// Slowdown is deterministic per argument triple: evaluating it
			// per (rank, candidate) yields the bits Retime gets per rank.
			sd[base+j] = timemodel.Slowdown(s.beta, s.fmax, f)
		}
	}

	ov := s.overhead
	for i := range s.ops {
		op := &s.ops[i]
		rb := int(op.rank) * width
		switch op.kind {
		case opCompute:
			f1 := op.f1
			for j := 0; j < k; j++ {
				d := f1 * sd[rb+j]
				clock[rb+j] += d
				comp[rb+j] += d
			}
		case opComputeBeta:
			f1 := op.f1
			beta := s.betas[op.arg]
			for j := 0; j < k; j++ {
				d := f1 * timemodel.Slowdown(beta, s.fmax, freq[rb+j])
				clock[rb+j] += d
				comp[rb+j] += d
			}
		case opSendEager:
			sb := int(op.arg) * width
			for j := 0; j < k; j++ {
				end := clock[rb+j] + ov
				slot[sb+j] = end
				clock[rb+j] = end
			}
		case opRecvEager:
			sb := int(op.arg) * width
			f1 := op.f1
			for j := 0; j < k; j++ {
				clock[rb+j] = fmax2(clock[rb+j]+ov, slot[sb+j]+f1)
			}
		case opRecvRend:
			srcb := int(op.src) * width
			f1 := op.f1
			for j := 0; j < k; j++ {
				end := fmax2(clock[rb+j]+ov, clock[srcb+j]+ov) + f1
				clock[rb+j] = end
				clock[srcb+j] = end
			}
		case opColl:
			// Same reduction order as Retime's scan (rank-ascending, '>')
			// so ties resolve to the identical bits per candidate.
			copy(maxv[:k], clock[:k])
			for o := 1; o < n; o++ {
				ob := o * width
				for j := 0; j < k; j++ {
					if clock[ob+j] > maxv[j] {
						maxv[j] = clock[ob+j]
					}
				}
			}
			f1 := op.f1
			for j := 0; j < k; j++ {
				maxv[j] += f1
			}
			for o := 0; o < n; o++ {
				ob := o * width
				for j := 0; j < k; j++ {
					clock[ob+j] = maxv[j]
				}
			}
		}
	}

	// Transpose the rank-major planes into the candidate-major output and
	// reduce Time with Retime's final comparison order.
	for j := 0; j < k; j++ {
		out := (c0 + j) * n
		t := 0.0
		for r := 0; r < n; r++ {
			fin := clock[r*width+j]
			res.Finish[out+r] = fin
			res.Compute[out+r] = comp[r*width+j]
			if fin > t {
				t = fin
			}
		}
		res.Time[c0+j] = t
	}
}
