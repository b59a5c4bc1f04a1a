// Command pwrsimd serves the simulation pipeline of "Power-Aware Load
// Balancing Of Large Scale MPI Applications" (Etinski et al., IPDPS 2009)
// as a long-running HTTP daemon with a shared, bounded replay cache.
//
// Usage:
//
//	pwrsimd -addr :8723
//	pwrsimd -addr :8723 -max-inflight 16 -timeout 60s -cache-entries 512
//
// Endpoints: POST /v1/replay, /v1/analyze, /v1/analyze/batch, /v1/gearopt,
// /v1/powercap, /v1/tracegen, GET /v1/apps, /healthz, /readyz, /metrics.
// See internal/server and README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dimemas"
	"repro/internal/faults"
	"repro/internal/server"
)

// defaultPlatform seeds the platform flags, so `pwrsimd -h` shows the
// paper's Myrinet-class constants as the defaults.
var defaultPlatform = dimemas.DefaultPlatform()

// parseFaultPoint maps a -fault-points name onto the faults taxonomy.
func parseFaultPoint(name string) (faults.Point, error) {
	for _, p := range faults.Points() {
		if string(p) == name {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown fault point %q (known: %v)", name, faults.Points())
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pwrsimd:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until SIGINT/SIGTERM, then drains in-flight
// requests. Split from main so tests can drive the flag and error paths.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pwrsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8723", "listen address")
		maxInFlight  = fs.Int("max-inflight", 0, "concurrent simulation requests (0 = 2×GOMAXPROCS)")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request timeout")
		cacheEntries = fs.Int("cache-entries", 512, "replay-cache LRU bound in recordings: one per trace × machine × FMax, each a skeleton with up to two baselines (negative = unbounded)")
		traceEntries = fs.Int("trace-cache-entries", 32, "generated-workload memo LRU bound (negative = unbounded)")
		maxBody      = fs.Int64("max-body", 8<<20, "maximum request body bytes")
		drain        = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		drainGrace   = fs.Duration("drain-grace", 0, "keep accepting (with /readyz answering 503) this long after SIGTERM so load balancers can route around the drain")
		latency      = fs.Float64("latency", defaultPlatform.Latency, "flat-link message latency in seconds")
		bandwidth    = fs.Float64("bandwidth", defaultPlatform.Bandwidth, "flat-link bandwidth in bytes per second")
		eagerLimit   = fs.Int64("eager-limit", defaultPlatform.EagerLimit, "largest message size (bytes) sent eagerly; larger messages rendezvous")
		overhead     = fs.Float64("overhead", defaultPlatform.Overhead, "per-call CPU overhead in seconds")
		faultRate    = fs.Uint64("fault-rate", 0, "inject one fault per N checks at each fault point (0 = disabled; chaos testing only)")
		faultSeed    = fs.Uint64("fault-seed", 1, "deterministic seed for fault injection")
		faultPoints  = fs.String("fault-points", "", "comma-separated fault points to arm (default: all; see internal/faults)")
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
	if *maxInFlight < 0 {
		return fmt.Errorf("max-inflight must be non-negative, got %d", *maxInFlight)
	}
	if *timeout <= 0 {
		return fmt.Errorf("timeout must be positive, got %v", *timeout)
	}
	if *drain <= 0 {
		return fmt.Errorf("drain must be positive, got %v", *drain)
	}
	if *drainGrace < 0 {
		return fmt.Errorf("drain-grace must be non-negative, got %v", *drainGrace)
	}
	if *drainGrace >= *drain {
		return fmt.Errorf("drain-grace (%v) must be shorter than the drain budget (%v)", *drainGrace, *drain)
	}
	platform := defaultPlatform
	platform.Latency = *latency
	platform.Bandwidth = *bandwidth
	platform.EagerLimit = *eagerLimit
	platform.Overhead = *overhead
	if err := platform.Validate(); err != nil {
		return err
	}
	if *faultRate > 0 {
		points := faults.Points()
		if *faultPoints != "" {
			points = points[:0]
			for _, name := range strings.Split(*faultPoints, ",") {
				p, err := parseFaultPoint(strings.TrimSpace(name))
				if err != nil {
					return err
				}
				points = append(points, p)
			}
		}
		rates := make(map[faults.Point]uint64, len(points))
		for _, p := range points {
			rates[p] = *faultRate
		}
		faults.Enable(faults.NewRegistry(*faultSeed, rates))
		fmt.Fprintf(stderr, "pwrsimd: WARNING: fault injection armed (seed %d, 1-in-%d at %d points) — chaos testing only\n",
			*faultSeed, *faultRate, len(points))
	} else if *faultPoints != "" {
		return fmt.Errorf("fault-points requires fault-rate > 0")
	}

	srv := server.New(server.Config{
		Addr:              *addr,
		MaxInFlight:       *maxInFlight,
		RequestTimeout:    *timeout,
		CacheEntries:      *cacheEntries,
		TraceCacheEntries: *traceEntries,
		MaxBodyBytes:      *maxBody,
		DrainGrace:        *drainGrace,
		Platform:          platform,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "pwrsimd: listening on %s\n", *addr)

	select {
	case err := <-errc:
		return err // bind failure or unexpected server exit
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "pwrsimd: shutting down, draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "pwrsimd: bye")
	return nil
}
