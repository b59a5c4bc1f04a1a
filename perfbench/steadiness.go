package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs the workload k times, each in its own process with seeds
// seed .. seed+k-1, and prints every end-to-end metric's median, quartiles,
// min/max and quartile spread as a share of the median, then each run's
// host steal and tail.
func steadiness(def workloadDef, seed int64, seconds float64, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	type perRun struct {
		seed    int64
		steal   float64
		tail    *float64
		metrics map[string]metric
	}
	var runs []perRun
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", def.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var res result
		var det struct {
			Detail detail `json:"detail"`
		}
		lines := nonEmptyLines(out)
		if len(lines) < 2 {
			return fmt.Errorf("run with seed %d printed no result", s)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: %d of %d ops failed", s, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		runs = append(runs, perRun{s, det.Detail.StealPct, det.Detail.TailMs, res.Metrics})
	}
	fmt.Printf("workload %s, %d runs of %gs, seeds %d..%d\n", def.name, k, seconds, seed, seed+int64(k)-1)
	fmt.Printf("%-16s %6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range sortedKeys(values) {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("%-16s %6s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f\n", name, units[name], q2, q1, q3, lo, hi, (q3-q1)/q2)
	}
	names := sortedKeys(values)
	fmt.Printf("%-6s %10s %12s", "seed", "steal_pct", "tail_ms")
	for _, name := range names {
		fmt.Printf(" %16s", name)
	}
	fmt.Println()
	for _, r := range runs {
		tail := "-"
		if r.tail != nil {
			tail = strconv.FormatFloat(*r.tail, 'g', 5, 64)
		}
		fmt.Printf("%-6d %10.2f %12s", r.seed, r.steal, tail)
		for _, name := range names {
			fmt.Printf(" %16.5g", r.metrics[name].Value)
		}
		fmt.Println()
	}
	return nil
}

func nonEmptyLines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			out = append(out, l)
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
