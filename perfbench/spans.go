package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the causing span's ID (0 for none). N counts the
// items of work the span covers (the width of a batch), 1 otherwise.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    string  `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	N      int     `json:"n"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1e3 }

// tracer keeps every span of a traced run in memory; write dumps them at
// the end.
type tracer struct {
	origin time.Time
	spans  []span
	class  map[string]string // measured request ID → request class
	key    map[string]int    // measured request ID → distinct request index
	order  []string
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), class: map[string]string{}, key: map[string]int{}, counts: map[string][]float64{}}
}

// request registers a measured request, whose spans enter the
// reconciliation of its class.
func (t *tracer) request(id, class string, key int) {
	t.class[id], t.key[id] = class, key
	t.order = append(t.order, id)
}

func (t *tracer) add(req, name string, parent int, start, end time.Time, n int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, N: n,
		Start: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3,
	})
	return id
}

// spanner records layer-call spans of one request under a parent span.
type spanner struct {
	tr     *tracer
	req    string
	parent int
	body   []byte // the request body being replayed, if any
}

// run times f as a span named name covering n items and returns its ID.
func (s *spanner) run(name string, n int, f func() error) (int, error) {
	start := time.Now()
	err := f()
	return s.tr.add(s.req, name, s.parent, start, time.Now(), n), err
}

// do is run without the span ID.
func (s *spanner) do(name string, n int, f func() error) error {
	_, err := s.run(name, n, f)
	return err
}

// under returns a spanner whose spans are logical children of span id:
// calls that replay a part of that span's work, measured on their own.
func (s *spanner) under(id int) *spanner {
	return &spanner{tr: s.tr, req: s.req, parent: id, body: s.body}
}

// count records a per-request count measured at a layer boundary.
func (s *spanner) count(name string, v float64) { s.tr.counts[name] = append(s.tr.counts[name], v) }

// selfMs returns every span's self time: its duration minus the durations
// of its child spans.
func (t *tracer) selfMs() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ms()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.ms()
		}
	}
	return self
}

// perRequest sums a value per (request, span name) over the spans that
// pass keep, and returns name → one value per request.
func (t *tracer) perRequest(val func(i int) float64, keep func(s span) bool) map[string][]float64 {
	type rk struct{ req, name string }
	sums := map[rk]float64{}
	var order []rk
	for i, s := range t.spans {
		if !keep(s) {
			continue
		}
		k := rk{s.Req, s.Name}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += val(i)
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], sums[k])
	}
	return out
}

// layerMedians is the median per-request duration (ms) of every span name,
// the value each per-layer time metric reports. name+"/item" is the median
// per-request duration divided by the items the spans cover: the per-call
// time of a layer called several times per request, the per-item time of
// a batch, the per-byte time of a parse.
func (t *tracer) layerMedians() map[string]float64 {
	all := func(span) bool { return true }
	ms := t.perRequest(func(i int) float64 { return t.spans[i].ms() }, all)
	items := t.perRequest(func(i int) float64 { return float64(t.spans[i].N) }, all)
	out := map[string]float64{}
	for name, xs := range ms {
		out[name] = median(xs)
		per := make([]float64, len(xs))
		for i := range xs {
			per[i] = xs[i] / items[name][i]
		}
		out[name+"/item"] = median(per)
	}
	return out
}

// reconcile sums, over the measured requests of one class, the median
// per-request self time of every layer on the request's path. The root
// ("client") span and the handler span are left out: the handler is
// represented by the layer calls that replay its work.
func (t *tracer) reconcile(class string) (sum float64, parts map[string]float64) {
	self := t.selfMs()
	keep := func(s span) bool {
		return t.class[s.Req] == class && s.Name != "client" && s.Name != "server.handler"
	}
	parts = map[string]float64{}
	for name, xs := range t.perRequest(func(i int) float64 { return self[i] }, keep) {
		parts[name] = median(xs)
		sum += parts[name]
	}
	return sum, parts
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
