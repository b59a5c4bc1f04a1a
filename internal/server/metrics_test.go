package server

import (
	"net/http"
	"os"
	"strings"
	"testing"
)

// maskExposition replaces the nonzero value of every sample whose family
// measures time with "<t>", so a fixed request sequence renders the same text on
// every run.
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
	return strings.Join(lines, "\n")
}

// TestMetricsGolden pins the whole /metrics body after two replays and one
// failing request: every family, HELP/TYPE line, family order, label
// quoting, zero-fill and number format.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{Trace: testSpec}); code != http.StatusOK {
			t.Fatalf("replay %d: status %d: %s", i, code, body)
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/replay", struct{}{}); code != http.StatusBadRequest {
		t.Fatalf("empty replay: status %d, want 400", code)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	got := maskExposition(string(body),
		"pwrsimd_uptime_seconds", "pwrsimd_request_seconds_sum",
		"pwrsimd_request_seconds_max", "pwrsimd_stage_seconds_sum")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from testdata/metrics.golden; got:\n%s", got)
	}
}
