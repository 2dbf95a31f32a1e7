// Command nwserve runs the simulation service: a long-lived HTTP server
// that accepts job specs (full sweep grids or single cells), executes
// them on the shared sweep fabric — same checkpoint/resume, shared
// result cache, cell supervision — and serves live telemetry and the
// finished artifacts.
//
//	nwserve -addr 127.0.0.1:8399 -data ./serve-data
//
// Endpoints:
//
//	POST /jobs                   submit {"grid": "..."} or {"cell": {"app": "gauss"}}
//	GET  /jobs                   all job statuses
//	GET  /jobs/{id}              one job's status (done/total, ETA)
//	GET  /jobs/{id}/events       NDJSON lifecycle stream (?since=N, ?follow=0)
//	POST /jobs/{id}/cancel       cancel (queued: immediately; running: graceful drain)
//	GET  /jobs/{id}/series       NDJSON live metric frames (long-poll)
//	GET  /jobs/{id}/artifacts    artifact listing; /artifacts/{name} serves one
//	GET  /metrics                Prometheus text across all jobs (+ scheduler gauges)
//	GET  /debug/pprof/           run-time profiles
//
// The first SIGINT/SIGTERM drains gracefully: no new jobs, queued jobs
// cancelled, running jobs finish their in-flight cells and checkpoint
// (a resubmission resumes from the shared cache), then the process
// exits 0. A second signal exits immediately with 128+signal.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nwcache/internal/guard"
	"nwcache/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8399", "listen address (use :0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file (for scripts using :0)")
		data       = flag.String("data", "nwserve-data", "data directory (job artifacts + shared result cache)")
		jobs       = flag.Int("jobs", 1, "concurrent jobs")
		workers    = flag.Int("j", 0, "pool workers per job (0 = GOMAXPROCS)")
		budget     = flag.Duration("cell-budget", 0, "wall-clock budget per cell (0 = unlimited)")
		stall      = flag.Duration("cell-stall", 0, "max tolerated simulated-time stall per cell (0 = off)")
		hostSample = flag.Duration("host-sample", 250*time.Millisecond, "host resource sampling period (negative = off)")
		quiet      = flag.Bool("q", false, "suppress per-job log lines")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	cfg := serve.Config{
		Dir:        *data,
		Jobs:       *jobs,
		Workers:    *workers,
		Guard:      guard.CellGuard{Budget: *budget, Stall: *stall},
		HostSample: *hostSample,
		Logf:       logf,
	}
	if *quiet {
		cfg.Logf = nil
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "nwserve: serving on http://%s (data %s)\n", ln.Addr(), *data)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "nwserve: %s — draining (again to abort)\n", sig)
		go func() {
			sig := <-sigc
			fmt.Fprintf(os.Stderr, "nwserve: %s again — aborting\n", sig)
			os.Exit(128 + int(sig.(syscall.Signal)))
		}()
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		httpSrv.Shutdown(ctx) //nolint:errcheck // lingering readers are cut off
		cancel()
		fmt.Fprintln(os.Stderr, "nwserve: drained")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwserve:", err)
	os.Exit(1)
}
