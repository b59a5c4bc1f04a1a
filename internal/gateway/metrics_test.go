package gateway

import (
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// maskExposition replaces the nonzero value of every sample whose family
// measures time with "<t>" and every ephemeral port with "PORT", so a fixed request
// sequence renders the same text on every run.
func maskExposition(text string, timed ...string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, name := range timed {
			cut := strings.LastIndexByte(line, ' ')
			if (strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{")) && line[cut+1:] != "0" {
				lines[i] = line[:cut] + " <t>"
			}
		}
	}
	return regexp.MustCompile(`127\.0\.0\.1:\d+`).ReplaceAllString(strings.Join(lines, "\n"), "127.0.0.1:PORT")
}

// TestGatewayMetricsGolden pins the whole /metrics body after two proxied
// analyzes, one owned by each of two backends: every family, HELP/TYPE
// line, family order, label quoting, zero-fill and number format. One
// request per backend keeps the text independent of which port sorts first.
func TestGatewayMetricsGolden(t *testing.T) {
	_, ts1 := newBackendServer(t)
	_, ts2 := newBackendServer(t)
	g := newGateway(t, Config{}, ts1.URL, ts2.URL)

	owned := map[string]bool{}
	for iters := 1; len(owned) < 2; iters++ {
		if iters > 64 {
			t.Fatal("no two keys with distinct owners")
		}
		key := keyOf(wireTraceRef{App: "IS-32", Iterations: iters, Quick: true})
		owner := g.currentRing().owner(key)
		if owned[owner] {
			continue
		}
		owned[owner] = true
		body := fmt.Sprintf(`{"trace": {"app": "IS-32", "iterations": %d, "quick": true}, "gear_set": {"kind": "uniform"}}`, iters)
		if rec := postJSON(t, g.Handler(), "/v1/analyze", body); rec.Code != 200 {
			t.Fatalf("analyze (iters %d) = %d: %s", iters, rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := maskExposition(rec.Body.String(),
		"pwrsimgw_uptime_seconds", "pwrsimgw_proxy_seconds_sum", "pwrsimgw_proxy_seconds_max")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from testdata/metrics.golden; got:\n%s", got)
	}
}
