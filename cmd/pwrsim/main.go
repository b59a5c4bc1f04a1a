// Command pwrsim regenerates the tables and figures of "Power-Aware Load
// Balancing Of Large Scale MPI Applications" (Etinski et al., IPDPS 2009)
// from the simulation pipeline in this repository.
//
// Usage:
//
//	pwrsim -list
//	pwrsim -experiment fig2
//	pwrsim -experiment all -iterations 20 -out report.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pwrsim:", err)
		os.Exit(1)
	}
}

// run is main's body, split out so tests can drive flag parsing and the
// error paths with injected streams.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("pwrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("experiment", "all", "experiment id (see -list) or 'all'")
		iters    = fs.Int("iterations", 20, "iterations per generated trace")
		outPath  = fs.String("out", "", "write the report to a file instead of stdout")
		list     = fs.Bool("list", false, "list available experiments and exit")
		quiet    = fs.Bool("quiet", false, "suppress progress messages on stderr")
		parallel = fs.Int("parallel", runtime.NumCPU(), "worker-pool size for the cells of every experiment (the report is identical at every value)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Description)
		}
		return nil
	}
	if *iters <= 0 {
		return fmt.Errorf("iterations must be positive, got %d", *iters)
	}

	out := stdout
	if *outPath != "" {
		f, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		// A failed close means a truncated report: surface it as run's
		// error (exit 1) unless an earlier error already won.
		defer func() {
			if ferr := f.Close(); ferr != nil && err == nil {
				err = ferr
			}
		}()
		out = f
	}

	cfg := workload.DefaultConfig()
	cfg.Iterations = *iters
	suite := experiments.NewSuite(cfg)
	suite.Workers = *parallel

	runOne := func(e experiments.Experiment) error {
		start := time.Now()
		if !*quiet {
			fmt.Fprintf(stderr, "running %s: %s\n", e.ID, e.Description)
		}
		if err := e.Run(suite, out); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	if *expID == "all" {
		for _, e := range experiments.All() {
			if err := runOne(e); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := experiments.ByID(*expID)
	if err != nil {
		return err
	}
	return runOne(e)
}
