// Command phlogon-serve exposes the memoizing analysis engine as an HTTP
// JSON service: PSS, PPV extraction, GAE locking sweeps and SPICE-level
// transients over the ring-oscillator vehicles, with admission control,
// per-request deadlines and graceful drain on SIGTERM. With -store, the
// engine gains a disk-backed content-addressed artifact tier so a warm
// cache survives restarts (and one directory can back several replicas).
//
// Usage:
//
//	phlogon-serve [-addr :8080] [-store DIR] [-workers N]
//	              [-capacity-bytes N] [-pss-steps 1024] [-timeout 120s]
//	              [-max-inflight N] [-retry-after 1s] [-drain-timeout 30s]
//	              [-metrics|-metrics-json] [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/pss"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	store := flag.String("store", "", "disk artifact store directory (empty: memory-only cache)")
	workers := flag.Int("workers", 0, "engine compute-pool width (0: one per CPU)")
	capacityBytes := flag.Int64("capacity-bytes", 0, "in-memory artifact cache bound (0: default, <0: unbounded)")
	pssSteps := flag.Int("pss-steps", 1024, "PSS steps per period (part of every cache key)")
	timeout := flag.Duration("timeout", 120*time.Second, "per-request analysis deadline")
	maxInFlight := flag.Int("max-inflight", 0, "admission limit (0: 8x engine workers)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 503 responses")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain at shutdown")
	df = diag.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, err := df.Start(context.Background())
	if err != nil {
		fatal(err)
	}
	defer df.Stop()

	opt := engine.Options{
		CapacityBytes: *capacityBytes,
		Workers:       *workers,
		PSS:           pss.Options{StepsPerPeriod: *pssSteps},
	}
	if *store != "" {
		ds, err := engine.OpenDiskStore(*store)
		if err != nil {
			fatal(err)
		}
		opt.Disk = ds
		fmt.Printf("phlogon-serve: disk artifact store at %s\n", ds.Dir())
	}
	eng := engine.New(opt)

	// Under -metrics/-metrics-json the exit report aggregates every
	// request's counters and serve.* spans (metrics stays nil otherwise and
	// the server allocates its own aggregate).
	metrics := diag.FromContext(ctx)
	srv, err := serve.New(serve.Options{
		Engine:         eng,
		RequestTimeout: *timeout,
		MaxInFlight:    *maxInFlight,
		RetryAfter:     *retryAfter,
		Metrics:        metrics,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// Catch the shutdown signals before announcing the address: a caller
	// that signals as soon as it reads the line must get a drain, not the
	// default kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	// The resolved address is printed (not just the flag) so port 0 is
	// usable: tests and scripts parse this line to find the server.
	fmt.Printf("phlogon-serve: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Printf("phlogon-serve: %s received, draining\n", sig)
		srv.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.DrainWait(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "phlogon-serve: drain incomplete: %v\n", err)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "phlogon-serve: shutdown: %v\n", err)
		}
		st := eng.Stats()
		fmt.Printf("phlogon-serve: drained (cache: %d hits, %d misses, %d coalesced; disk: %d hits, %d writes)\n",
			st.Hits, st.Misses, st.Coalesced, st.DiskHits, st.DiskWrites)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// df is package-level so fatal can flush profiles/metrics before exiting.
var df *diag.Flags

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phlogon-serve:", err)
	if df != nil {
		df.Stop()
	}
	os.Exit(1)
}
