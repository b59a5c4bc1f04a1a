package workload

import (
	"slices"

	"repro/internal/trace"
)

// emitter appends an instance's records to a trace. A record whose message
// size the calibration scales goes through scaled, which sizes it with
// size(base) and remembers where it put it; every other record goes through
// add.
type emitter struct {
	tr    *trace.Trace
	size  func(base int64) int64
	slots []slot
}

// slot is one scaled record of a template: its rank, its position in that
// rank's records and its base message size.
type slot struct {
	rank, pos int32
	base      int64
}

func (e *emitter) add(r int, rec trace.Record) {
	e.tr.Ranks[r] = append(e.tr.Ranks[r], rec)
}

func (e *emitter) scaled(r int, rec trace.Record, base int64) {
	e.slots = append(e.slots, slot{rank: int32(r), pos: int32(len(e.tr.Ranks[r])), base: base})
	rec.Bytes = e.size(base)
	e.add(r, rec)
}

// scaledBy returns the size function of communication scale s.
func scaledBy(s float64) func(base int64) int64 {
	return func(base int64) int64 { return scaleBytes(base, s) }
}

// template is an instance's full trace together with the slots of its
// scaled records, so the calibration can move it from one communication
// scale to another without emitting it again.
type template struct {
	tr    *trace.Trace
	slots []slot
}

// template emits iters iterations with the given size function. The first
// iteration fixes every rank's record count, so the rest are appended at
// exact capacity.
func (p *plan) template(iters int, size func(base int64) int64) *template {
	n := p.inst.NProcs
	e := &emitter{tr: trace.New(p.inst.Name, n), size: size}
	p.iteration(e)
	for r, recs := range e.tr.Ranks {
		e.tr.Ranks[r] = append(make([]trace.Record, 0, len(recs)*iters), recs...)
	}
	e.slots = append(make([]slot, 0, len(e.slots)*iters), e.slots...)
	for it := 1; it < iters; it++ {
		p.iteration(e)
	}
	return &template{tr: e.tr, slots: e.slots}
}

// iteration emits one iteration and closes it on every rank.
func (p *plan) iteration(e *emitter) {
	p.emit(e)
	for r := 0; r < p.inst.NProcs; r++ {
		e.add(r, trace.IterMark())
	}
}

// rescale rewrites every scaled record in place to scaleBytes(base, s) and
// leaves the rest of the trace alone. This in-place edit of a replayed
// trace is the one the trace.Trace immutability note sanctions: see
// Generate for why the cached replay index stays valid.
func (t *template) rescale(s float64) {
	for _, sl := range t.slots {
		t.tr.Ranks[sl.rank][sl.pos].Bytes = scaleBytes(sl.base, s)
	}
}

// pe rescales the template to s and replays it for its parallel efficiency:
// one step of Generate's bisection.
func (t *template) pe(s float64, cfg Config) (float64, error) {
	t.rescale(s)
	ch, err := measure(t.tr, cfg.Platform, cfg.FMax, cfg.Ctx)
	return ch.PE, err
}

// clone copies the template's records into a new trace that carries no
// cached replay index.
func (t *template) clone() *trace.Trace {
	out := trace.New(t.tr.App, len(t.tr.Ranks))
	for r, recs := range t.tr.Ranks {
		out.Ranks[r] = slices.Clone(recs)
	}
	return out
}
