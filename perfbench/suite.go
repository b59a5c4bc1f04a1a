package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// suiteRunner is the paper-suite workload: one op is a fresh experiments
// suite running every registered experiment, as `pwrsim -experiment all`
// does with its defaults (20 iterations, workers = nproc).
type suiteRunner struct {
	ref    []byte // the serial (Workers: 1) report
	nextID int
}

// runSuite renders the whole report; with sp set, each experiment's Run is
// a span.
func runSuite(workers int, sp *spanner) ([]byte, error) {
	s := experiments.NewSuite(workload.DefaultConfig())
	s.Workers = workers
	var buf bytes.Buffer
	for _, e := range experiments.All() {
		run := func() error { return e.Run(s, &buf) }
		var err error
		if sp != nil {
			err = sp.do("experiments."+e.ID, 1, run)
		} else {
			err = run()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return buf.Bytes(), nil
}

// setupSuite makes the serial reference report. A probe skips it and
// checks nothing.
func setupSuite(probe bool) (*suiteRunner, error) {
	if probe {
		return &suiteRunner{}, nil
	}
	ref, err := runSuite(1, nil)
	if err != nil {
		return nil, err
	}
	return &suiteRunner{ref: ref}, nil
}

func (r *suiteRunner) seqLen() int { return 1 }

func (r *suiteRunner) do(_ int, tr *tracer) (string, time.Duration, error) {
	r.nextID++
	id := "op-" + strconv.Itoa(r.nextID)
	var sp *spanner
	var rootID int
	start := time.Now()
	if tr != nil {
		// The root span's ID is fixed before its children are recorded.
		tr.request(id, "suite", 0)
		rootID = tr.add(id, "client", 0, start, start, 1)
		sp = &spanner{tr: tr, req: id, parent: rootID}
	}
	out, err := runSuite(runtime.NumCPU(), sp)
	lat := time.Since(start)
	if tr != nil {
		tr.spans[rootID-1].End = float64(time.Since(tr.origin).Nanoseconds()) / 1e3
	}
	if err != nil {
		return "suite", lat, err
	}
	if r.ref != nil && !bytes.Equal(out, r.ref) {
		return "suite", lat, errMismatch
	}
	return "suite", lat, nil
}

func (r *suiteRunner) replay(string, int, *tracer) error { return nil }

func (r *suiteRunner) timing(bool) {}

// extraProbe times trace generation of every Table 3 application at the
// suite's configuration, and one simulation of each generated trace.
func (r *suiteRunner) extraProbe(tr *tracer) error {
	var keys []genKey
	for _, inst := range workload.Table3() {
		keys = append(keys, genKey{app: inst.Name, iterations: workload.DefaultConfig().Iterations})
	}
	traces, err := generateProbe(tr, keys...)
	if err != nil {
		return err
	}
	for i, t := range traces {
		if _, err := simulateFresh(&spanner{tr: tr, req: "probe-sim-" + strconv.Itoa(i)}, t); err != nil {
			return err
		}
	}
	return nil
}

func (r *suiteRunner) counters() map[string]float64 { return nil }

func (r *suiteRunner) digest() string {
	h := sha256.Sum256(r.ref)
	return hex.EncodeToString(h[:])[:16]
}

func (r *suiteRunner) close() {}
