package obs

import (
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Render covers every family shape: unlabeled stored and read samples, %d
// and %g formats, a fixed domain zero-filled in its own order, and
// seen-so-far values sorted with quoted labels.
func TestRender(t *testing.T) {
	r := &Registry{}
	r.Gauge("up_seconds", "Uptime.").Float().Reads(func(string) float64 { return 1.5 })
	n := r.Counter("n_total", "Events.")
	stage := r.Counter("stage_total", "By stage.").Label("stage", []string{"parse", "validate", "serve"})
	route := r.Gauge("route_max", "By route.").Float().Label("route", nil)
	r.Gauge("ready", "Readiness.").Label("backend", []string{"b", "a"}).
		Reads(func(b string) float64 { return Bit(b == "a") })
	last := r.Gauge("last_ratio", "Last.").Float()

	n.Add("", 2)
	n.Add("", 1)
	stage.Add("serve", 1)
	stage.Add("unknown", 7) // outside the domain: stored, not rendered
	route.Max("/v1/z", 0.25)
	route.Max("/v1/a\"q", 0.5)
	route.Max("/v1/a\"q", 0.125)
	last.Set("", 0.75)
	last.Set("", 1e-07)

	var b strings.Builder
	r.Render(&b)
	want := `# HELP up_seconds Uptime.
# TYPE up_seconds gauge
up_seconds 1.5
# HELP n_total Events.
# TYPE n_total counter
n_total 3
# HELP stage_total By stage.
# TYPE stage_total counter
stage_total{stage="parse"} 0
stage_total{stage="validate"} 0
stage_total{stage="serve"} 1
# HELP route_max By route.
# TYPE route_max gauge
route_max{route="/v1/a\"q"} 0.5
route_max{route="/v1/z"} 0.25
# HELP ready Readiness.
# TYPE ready gauge
ready{backend="b"} 0
ready{backend="a"} 1
# HELP last_ratio Last.
# TYPE last_ratio gauge
last_ratio 1e-07
`
	if got := b.String(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if got := stage.Value("unknown"); got != 7 {
		t.Fatalf("out-of-domain value = %g, want 7", got)
	}
}

// Every request goroutine of a daemon updates the registry while scrapes
// render it; run with -race.
func TestConcurrentUpdatesAndRender(t *testing.T) {
	r := &Registry{}
	count := r.Counter("count_total", "Count.").Label("route", nil)
	sum := r.Counter("sum_total", "Sum.").Float()
	peak := r.Gauge("peak", "Peak.").Float().Label("route", nil)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := fmt.Sprintf("/r%d", w%2)
			for i := 0; i < each; i++ {
				count.Add(route, 1)
				sum.Add("", 0.5)
				peak.Max(route, float64(i))
				if i%100 == 0 {
					r.Render(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, route := range []string{"/r0", "/r1"} {
		if got := count.Value(route); got != workers/2*each {
			t.Errorf("count{%s} = %g, want %d", route, got, workers/2*each)
		}
		if got := peak.Value(route); got != each-1 {
			t.Errorf("peak{%s} = %g, want %d", route, got, each-1)
		}
	}
	if got := sum.Value(""); got != workers*each*0.5 {
		t.Errorf("sum = %g, want %g", got, workers*each*0.5)
	}
}

func TestRequestID(t *testing.T) {
	for _, clean := range []string{"a", "caller-42", "A.b_c-9", strings.Repeat("x", 64)} {
		if got := RequestID(clean); got != clean {
			t.Errorf("clean ID %q replaced by %q", clean, got)
		}
	}
	fresh := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, bad := range []string{"", "two words", "id\nX-Injected: 1", "id;DROP", "ü", strings.Repeat("x", 65)} {
		if got := RequestID(bad); !fresh.MatchString(got) {
			t.Errorf("hostile ID %q replaced by %q, want 16 hex digits", bad, got)
		}
	}
	if RequestID("") == RequestID("") {
		t.Error("two fresh IDs are equal")
	}
}
