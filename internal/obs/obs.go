// Package obs is the observability substrate the daemons share: one
// registry of metric families rendered as Prometheus text, and the
// request-ID policy every tier applies to inbound requests.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// Registry holds metric families in render order. Declare every family
// before the registry is shared; updates and Render are then safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*Family
}

// Family is one metric family: a name, HELP text, TYPE and at most one
// label. Its samples are integers (rendered %d) or floats (%g), either
// stored by Add/Set/Max or read at scrape time. Samples are held as
// float64, so integer families count exactly up to 2^53.
type Family struct {
	reg                    *Registry
	name, help, typ, label string
	float                  bool
	domain                 []string
	read                   func(value string) float64
	vals                   map[string]float64
}

// Counter declares a counter family after the ones declared so far.
func (r *Registry) Counter(name, help string) *Family { return r.declare(name, help, "counter") }

// Gauge declares a gauge family after the ones declared so far.
func (r *Registry) Gauge(name, help string) *Family { return r.declare(name, help, "gauge") }

func (r *Registry) declare(name, help, typ string) *Family {
	f := &Family{reg: r, name: name, help: help, typ: typ, vals: make(map[string]float64)}
	r.fams = append(r.fams, f)
	return f
}

// Float renders the family's samples with %g instead of %d.
func (f *Family) Float() *Family {
	f.float = true
	return f
}

// Label gives the family a label. A non-nil domain is rendered in full and
// in order, zero-filled; a nil domain renders the values seen so far,
// sorted.
func (f *Family) Label(name string, domain []string) *Family {
	f.label, f.domain = name, domain
	return f
}

// Reads makes the family's samples scrape-time reads: read is called once
// per label value ("" when unlabeled) on every Render, outside the
// registry's lock. A labeled family that reads needs a fixed domain.
func (f *Family) Reads(read func(value string) float64) *Family {
	f.read = read
	return f
}

// Add adds v to the sample of label value lv ("" when unlabeled).
func (f *Family) Add(lv string, v float64) {
	f.reg.mu.Lock()
	f.vals[lv] += v
	f.reg.mu.Unlock()
}

// Set stores v as the sample of label value lv.
func (f *Family) Set(lv string, v float64) {
	f.reg.mu.Lock()
	f.vals[lv] = v
	f.reg.mu.Unlock()
}

// Max raises the sample of label value lv to v; a value seen for the first
// time starts from 0.
func (f *Family) Max(lv string, v float64) {
	f.reg.mu.Lock()
	f.vals[lv] = max(f.vals[lv], v)
	f.reg.mu.Unlock()
}

// Value returns the stored sample of label value lv (0 if never set).
func (f *Family) Value(lv string) float64 {
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	return f.vals[lv]
}

// Bit is 1 for true and 0 for false.
func Bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

type sample struct {
	lv string
	v  float64
}

// Render writes the Prometheus text exposition of every family in
// declaration order. Stored samples are copied under one lock, so a scrape
// sees all of them at one instant; scrape-time reads run after it.
func (r *Registry) Render(w io.Writer) {
	samples := make([][]sample, len(r.fams))
	r.mu.Lock()
	for i, f := range r.fams {
		if f.read == nil {
			for _, lv := range f.values() {
				samples[i] = append(samples[i], sample{lv, f.vals[lv]})
			}
		}
	}
	r.mu.Unlock()
	for i, f := range r.fams {
		if f.read != nil {
			for _, lv := range f.values() {
				samples[i] = append(samples[i], sample{lv, f.read(lv)})
			}
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range samples[i] {
			name := f.name
			if f.label != "" {
				name += fmt.Sprintf("{%s=%q}", f.label, s.lv)
			}
			if f.float {
				fmt.Fprintf(w, "%s %g\n", name, s.v)
			} else {
				fmt.Fprintf(w, "%s %d\n", name, int64(s.v))
			}
		}
	}
}

// values lists the label values a family renders: "" when unlabeled, the
// fixed domain, or the values seen so far (read from vals, under r.mu).
func (f *Family) values() []string {
	switch {
	case f.label == "":
		return []string{""}
	case f.domain != nil:
		return f.domain
	}
	seen := make([]string, 0, len(f.vals))
	for lv := range f.vals {
		seen = append(seen, lv)
	}
	slices.Sort(seen)
	return seen
}

// maxRequestIDLen bounds an inbound request ID; longer (or non-token) IDs
// are replaced rather than truncated, so a hostile header cannot smuggle
// bytes into logs or envelopes.
const maxRequestIDLen = 64

const tokenBytes = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"

// RequestID applies the request-ID policy to an inbound header value: a
// short plain token (1..64 bytes of [A-Za-z0-9._-]) is kept, so one ID
// follows a request across the gateway and the daemon; anything else is
// replaced by a fresh 16-hex-digit random ID.
func RequestID(inbound string) string {
	if len(inbound) > 0 && len(inbound) <= maxRequestIDLen && strings.Trim(inbound, tokenBytes) == "" {
		return inbound
	}
	var b [8]byte
	// crypto/rand.Read never fails on supported platforms; a zero ID is
	// still a valid (if degenerate) correlation token.
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
