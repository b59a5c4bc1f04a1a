package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dimemas"
	"repro/internal/gateway"
	"repro/internal/server"
)

// handlerTimer wraps Server.Handler() and, while on, records how long the
// handler took for each request ID.
type handlerTimer struct {
	h     http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	times map[string]time.Duration
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	t.times[r.Header.Get(server.RequestIDHeader)] = d
	t.mu.Unlock()
}

// take removes and returns the handler time recorded for id.
func (t *handlerTimer) take(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.times[id]
	delete(t.times, id)
	return d, ok
}

// backend is one in-process pwrsimd on a loopback listener.
type backend struct {
	srv   *server.Server
	timer *handlerTimer
	http  *http.Server
	url   string
	done  chan error
}

func startBackend() (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("backend listen: %w", err)
	}
	srv := server.New(server.Config{Addr: ln.Addr().String()})
	srv.MarkReady()
	b := &backend{
		srv:   srv,
		timer: &handlerTimer{h: srv.Handler(), times: map[string]time.Duration{}},
		url:   "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	b.http = &http.Server{Handler: b.timer}
	go func() { b.done <- b.http.Serve(ln) }()
	return b, nil
}

// fleet is the serving set-up of one workload: one or two backends,
// optionally behind an in-process gateway, and one closed-loop client.
type fleet struct {
	backends []*backend
	gw       *gateway.Gateway
	gwDone   chan error
	target   string // base URL the measured ops go to
	client   *http.Client
}

func newFleet(nbackends int, withGateway bool) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
	var urls []string
	for i := 0; i < nbackends; i++ {
		b, err := startBackend()
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.url)
	}
	f.target = urls[0]
	if !withGateway {
		return f, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("gateway listen: %w", err)
	}
	g, err := gateway.New(gateway.Config{Addr: ln.Addr().String(), Backends: urls})
	if err != nil {
		ln.Close()
		f.close()
		return nil, err
	}
	g.CheckNow(context.Background())
	f.gw, f.gwDone = g, make(chan error, 1)
	go func() { f.gwDone <- g.Serve(ln) }()
	f.target = "http://" + ln.Addr().String()
	return f, nil
}

// close shuts every server down and waits for its serve loop to return.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.client.CloseIdleConnections()
	if f.gw != nil {
		f.gw.Shutdown(ctx)
		<-f.gwDone
	}
	for _, b := range f.backends {
		b.http.Shutdown(ctx)
		<-b.done
	}
}

// post sends one request and returns the response body, failing on a
// transport error or a non-2xx status.
func (f *fleet) post(base, path, id string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, id)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// handlerTime finds which backend served id and returns its handler time.
func (f *fleet) handlerTime(id string) (time.Duration, error) {
	for _, b := range f.backends {
		if d, ok := b.timer.take(id); ok {
			return d, nil
		}
	}
	return 0, fmt.Errorf("no backend recorded request %s", id)
}

func (f *fleet) setTiming(on bool) {
	for _, b := range f.backends {
		b.timer.on.Store(on)
	}
}

// cacheStats sums the replay-cache counters of every backend.
func (f *fleet) cacheStats() dimemas.CacheStats {
	var s dimemas.CacheStats
	for _, b := range f.backends {
		st := b.srv.Cache().Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Evictions += st.Evictions
		s.Entries += st.Entries
	}
	return s
}

// hedges reads the gateway's hedged-attempt counters from its /metrics.
func (f *fleet) hedges() float64 {
	if f.gw == nil {
		return 0
	}
	rec := httptest.NewRecorder()
	f.gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	total := 0.0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "pwrsimgw_backend_hedges_total{") {
			if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

// request is one distinct request of a serving workload.
type request struct {
	class string
	path  string
	body  []byte
	ref   []byte // reference body fetched directly from a backend at set-up
	// replay re-executes the request's work through the public layer calls,
	// recording one span per call, and returns the response body it would
	// encode so the replay itself is checked against ref.
	replay func(sp *spanner) ([]byte, error)
}

// servingRunner drives one serving workload's seeded op sequence.
type servingRunner struct {
	f    *fleet
	reqs []request
	seq  []int // op i sends reqs[seq[i%len(seq)]]
	// direct, when set, makes the traced phase also send each op straight to
	// the first backend, to time transport without the gateway.
	direct bool
	// extra times layer calls no request of the workload isolates, on the
	// workload's own inputs.
	extra  func(tr *tracer) error
	nextID atomic.Int64
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// fetchReferences asks the first backend directly, bypassing any gateway,
// for one reference body per distinct request, then warms the measured path
// with every request once and checks it answers the same bytes.
func (r *servingRunner) fetchReferences() error {
	direct := r.f.backends[0].url
	for i := range r.reqs {
		q := &r.reqs[i]
		ref, err := r.f.post(direct, q.path, "ref-"+strconv.Itoa(i), q.body)
		if err != nil {
			return fmt.Errorf("reference %d: %w", i, err)
		}
		q.ref = ref
	}
	for i, q := range r.reqs {
		got, err := r.f.post(r.f.target, q.path, "warm-"+strconv.Itoa(i), q.body)
		if err != nil {
			return fmt.Errorf("warm %d: %w", i, err)
		}
		if !bytes.Equal(got, q.ref) {
			return fmt.Errorf("warm %d: %s response differs from the direct reference", i, q.path)
		}
	}
	return nil
}

func (r *servingRunner) digest() string {
	h := sha256.New()
	for _, q := range r.reqs {
		h.Write(q.ref)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (r *servingRunner) seqLen() int { return len(r.seq) }

var errMismatch = errors.New("response differs from its reference")

func (r *servingRunner) do(i int, tr *tracer) (string, time.Duration, error) {
	q := &r.reqs[r.seq[i%len(r.seq)]]
	id := "op-" + strconv.FormatInt(r.nextID.Add(1), 10)
	start := time.Now()
	got, err := r.f.post(r.f.target, q.path, id, q.body)
	end := time.Now()
	lat := end.Sub(start)
	if err == nil && !bytes.Equal(got, q.ref) {
		err = errMismatch
	}
	if err != nil || tr == nil {
		return q.class, lat, err
	}
	hd, herr := r.f.handlerTime(id)
	if herr != nil {
		return q.class, lat, herr
	}
	tr.request(id, q.class, r.seq[i%len(r.seq)])
	rootID := tr.add(id, "client", 0, start, end, 1)
	outer := "server.transport"
	if r.f.gw != nil {
		outer = "gateway.hop"
	}
	tr.add(id, outer, rootID, start, end.Add(-hd), 1)
	tr.add(id, "server.handler", rootID, start, start.Add(hd), 1)
	if r.direct {
		did := id + "/direct"
		s := time.Now()
		direct, err := r.f.post(r.f.backends[0].url, q.path, did, q.body)
		e := time.Now()
		if err == nil && !bytes.Equal(direct, q.ref) {
			err = errMismatch
		}
		if err != nil {
			return q.class, lat, err
		}
		dh, err := r.f.handlerTime(did)
		if err != nil {
			return q.class, lat, err
		}
		tr.add(did, "server.transport", 0, s, e.Add(-dh), 1)
	}
	return q.class, lat, nil
}

// replay re-runs a measured request's work through the layer calls under
// its request ID and checks the re-encoded body against the reference.
func (r *servingRunner) replay(reqID string, key int, tr *tracer) error {
	q := &r.reqs[key]
	sp := &spanner{tr: tr, req: reqID, body: q.body}
	got, err := q.replay(sp)
	if err != nil {
		return fmt.Errorf("%s replay: %w", q.path, err)
	}
	if !bytes.Equal(got, q.ref) {
		return fmt.Errorf("%s replay through the layer calls differs from the served reference", q.path)
	}
	return nil
}

func (r *servingRunner) counters() map[string]float64 {
	st := r.f.cacheStats()
	return map[string]float64{
		"hits":      float64(st.Hits),
		"misses":    float64(st.Misses),
		"evictions": float64(st.Evictions),
		"hedges":    r.f.hedges(),
	}
}

func (r *servingRunner) close() { r.f.close() }

func (r *servingRunner) timing(on bool) { r.f.setTiming(on) }

func (r *servingRunner) extraProbe(tr *tracer) error {
	if r.extra == nil {
		return nil
	}
	return r.extra(tr)
}
