// Command nwsim runs one application on one machine configuration and
// prints the measured statistics. Every Table 1 parameter is exposed as a
// flag, so single points of the design space can be probed directly.
//
// Usage:
//
//	nwsim -app lu -machine nwcache -prefetch optimal [-scale 0.5] ...
//
// Exit codes: 0 on success, 1 on error, 128+signal when killed by
// SIGINT/SIGTERM. On any exit path — including signals and fatal
// errors — the -watch dashboard's terminal state (cursor visibility,
// ANSI attributes) is restored first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/fault"
	"nwcache/internal/obs"
	"nwcache/internal/param"
)

// watcher is the live dashboard, when -watch armed one. It is read by
// fatal and the signal handler to hand the terminal back (cursor,
// attributes) before the process dies; Restore is nil-safe and
// idempotent, so every exit path may call it unconditionally.
var watcher *obs.Watcher

func main() {
	// A panic while the dashboard is repainting must not strand the
	// terminal with a hidden cursor (os.Exit paths go through fatal or
	// the signal handler instead).
	defer func() { watcher.Restore() }()
	cfg := core.DefaultConfig()
	var (
		app        = flag.String("app", "lu", "application: "+strings.Join(core.Apps(), ", "))
		machineF   = flag.String("machine", "nwcache", "machine kind: standard or nwcache")
		prefetch   = flag.String("prefetch", "optimal", "prefetch mode: naive, optimal, or streamed")
		minFree    = flag.Int("minfree", 0, "min free frames (0 = paper's per-configuration choice)")
		cfgFile    = flag.String("config", "", "JSON config file (flags override its values)")
		dumpCfg    = flag.Bool("dump-config", false, "print the effective config as JSON and exit")
		util       = flag.Bool("util", false, "also print per-resource utilization")
		seeds      = flag.Int("seeds", 1, "run N seeds and report mean/min/max execution time")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent seed runs (with -seeds)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (Perfetto-loadable)")
		maniOut    = flag.String("manifest-out", "", "write a run manifest JSON (params, seed, metrics, output digest)")
		metricsF   = flag.Bool("metrics", false, "print the metric snapshot after the run")
		seriesOut  = flag.String("series-out", "", "write sampled time-series telemetry to this file (NDJSON, or CSV with a .csv suffix)")
		seriesIntv = flag.Int64("series-interval", 500_000, "telemetry sampling interval in pcycles")
		watch      = flag.Bool("watch", false, "render a live ANSI telemetry dashboard on stderr while the run executes")
		httpAddr   = flag.String("http", "", "serve live telemetry over HTTP on this address (/metrics Prometheus text, /series NDJSON stream)")
		faultPlan  = flag.String("fault-plan", "", "fault-plan spec file (see internal/fault); empty = no fault injection")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the fault injector's dedicated PRNG stream")
		recovery   = flag.String("recovery", "", "recovery policy: aggressive (paper default) or conservative")
	)
	flag.Float64Var(&cfg.Scale, "scale", 1.0, "workload scale (1.0 = paper inputs)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	flag.IntVar(&cfg.MemPerNode, "mem", cfg.MemPerNode, "memory per node (bytes)")
	flag.IntVar(&cfg.DiskCacheBytes, "diskcache", cfg.DiskCacheBytes, "disk controller cache (bytes)")
	flag.IntVar(&cfg.RingChanBytes, "ringchan", cfg.RingChanBytes, "optical storage per channel (bytes)")
	flag.Int64Var(&cfg.RingRoundTrip, "ringrtt", cfg.RingRoundTrip, "ring round-trip latency (pcycles)")
	flag.IntVar(&cfg.SwapQueueDepth, "swapdepth", cfg.SwapQueueDepth, "outstanding swap-outs per node")
	flag.BoolVar(&cfg.DCD, "dcd", cfg.DCD, "attach a Disk Caching Disk log to each disk (§6 baseline)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	if *cfgFile != "" {
		loaded, err := param.LoadFile(*cfgFile)
		if err != nil {
			fatal(err)
		}
		// Re-apply any flags given explicitly on the command line on top
		// of the file's values.
		cfg = loaded
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				cfg.Scale, _ = strconv.ParseFloat(f.Value.String(), 64)
			case "seed":
				cfg.Seed, _ = strconv.ParseInt(f.Value.String(), 10, 64)
			case "mem":
				cfg.MemPerNode, _ = strconv.Atoi(f.Value.String())
			case "diskcache":
				cfg.DiskCacheBytes, _ = strconv.Atoi(f.Value.String())
			case "ringchan":
				cfg.RingChanBytes, _ = strconv.Atoi(f.Value.String())
			case "ringrtt":
				cfg.RingRoundTrip, _ = strconv.ParseInt(f.Value.String(), 10, 64)
			case "swapdepth":
				cfg.SwapQueueDepth, _ = strconv.Atoi(f.Value.String())
			case "dcd":
				cfg.DCD = f.Value.String() == "true"
			}
		})
	}
	if *dumpCfg {
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	var kind core.Kind
	switch *machineF {
	case "standard":
		kind = core.Standard
	case "nwcache":
		kind = core.NWCache
	default:
		fatal(fmt.Errorf("unknown machine %q", *machineF))
	}
	var mode core.PrefetchMode
	switch *prefetch {
	case "naive":
		mode = core.Naive
	case "optimal":
		mode = core.Optimal
	case "streamed":
		mode = core.Streamed
	default:
		fatal(fmt.Errorf("unknown prefetch mode %q", *prefetch))
	}
	if *minFree == 0 {
		cfg.MinFreeFrames = core.PaperMinFree(kind, mode)
	} else {
		cfg.MinFreeFrames = *minFree
	}

	// Fault injection: parse the plan (and policy) before spending any
	// simulation time, so a bad spec fails fast.
	var injector *fault.Injector
	if *faultPlan != "" || *recovery != "" {
		spec := ""
		if *faultPlan != "" {
			raw, err := os.ReadFile(*faultPlan)
			if err != nil {
				fatal(err)
			}
			spec = string(raw)
		}
		plan, err := fault.Parse(spec)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", *faultPlan, err))
		}
		policy, err := fault.ParsePolicy(*recovery)
		if err != nil {
			fatal(err)
		}
		injector = fault.NewInjector(plan, *faultSeed, policy)
	}

	if *seeds > 1 {
		if *traceOut != "" || *maniOut != "" || *metricsF {
			fatal(fmt.Errorf("-trace-out/-manifest-out/-metrics require a single run (-seeds 1)"))
		}
		if *seriesOut != "" || *watch || *httpAddr != "" {
			fatal(fmt.Errorf("-series-out/-watch/-http require a single run (-seeds 1)"))
		}
		if injector != nil {
			fatal(fmt.Errorf("-fault-plan/-recovery require a single run (-seeds 1)"))
		}
		agg, err := pool.RunSeeds(pool.New(*jobs), *app, kind, mode, cfg, *seeds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("app=%s machine=%s prefetch=%s scale=%.2f seeds=%d\n\n",
			*app, kind, mode, cfg.Scale, *seeds)
		fmt.Printf("execution time:  mean %.1f Mpcycles (min %.1f, max %.1f, spread %.1f%%)\n",
			agg.MeanExec/1e6, float64(agg.MinExec)/1e6, float64(agg.MaxExec)/1e6,
			agg.Spread()*100)
		fmt.Printf("ring hit rate:   mean %.1f%%\n", agg.MeanRingHitRate*100)
		fmt.Printf("avg swap time:   mean %.1f Kpcycles\n", agg.MeanSwapTime/1e3)
		return
	}

	prog, err := core.NewProgram(*app, cfg)
	if err != nil {
		fatal(err)
	}
	m, err := core.NewMachine(cfg, kind, mode)
	if err != nil {
		fatal(err)
	}
	m.AttachFaults(injector)

	// Observability: a metrics registry when any consumer wants a
	// snapshot, a span trace for -trace-out, and a digesting stdout tee
	// for the manifest's determinism digest. With none of the flags set,
	// nothing is wired and the run is byte-identical to an unobserved one.
	var (
		reg *obs.Registry
		tr  *obs.Trace
		dw  *obs.DigestWriter
		out io.Writer = os.Stdout
	)
	wantSeries := *seriesOut != "" || *watch || *httpAddr != ""
	if *maniOut != "" || *metricsF || wantSeries {
		reg = obs.NewRegistry()
	}
	if *traceOut != "" {
		tr = obs.NewTrace(0)
	}
	if *maniOut != "" {
		dw = obs.NewDigestWriter(os.Stdout)
		out = dw
	}
	if reg != nil || tr != nil {
		m.Observe(reg, tr)
	}

	// Time-series telemetry: sample the registry at a fixed simulated-time
	// interval. The sampler only reads state, so the run (and its stdout
	// digest) stays byte-identical with telemetry on or off.
	var sampler *obs.Sampler
	var watchStop chan struct{}
	var watchDone chan struct{}
	if wantSeries {
		if *seriesIntv <= 0 {
			fatal(fmt.Errorf("-series-interval must be positive, got %d", *seriesIntv))
		}
		sampler = obs.NewSampler(reg, *seriesIntv, 0)
		m.StartSampler(sampler)
		if *watch || *httpAddr != "" {
			label := fmt.Sprintf("%s/%s/%s", *app, kind, mode)
			set := &obs.LiveSet{}
			set.Add(sampler.Publish(label))
			if *httpAddr != "" {
				srv, err := obs.StartLiveServer(*httpAddr, set)
				if err != nil {
					fatal(err)
				}
				defer srv.Close()
				fmt.Fprintf(os.Stderr, "nwsim: live telemetry on http://%s (/metrics, /series)\n", srv.Addr())
			}
			if *watch {
				watcher = &obs.Watcher{Set: set, Out: os.Stderr}
				watchStop = make(chan struct{})
				watchDone = make(chan struct{})
				go func() {
					defer close(watchDone)
					watcher.Run(watchStop)
				}()
			}
		}
	}

	// SIGINT/SIGTERM: restore the terminal (the dashboard hides the
	// cursor) and exit with the conventional 128+signal code. Installed
	// after the watcher exists so the handler sees it.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		watcher.Restore()
		fmt.Fprintf(os.Stderr, "nwsim: %v\n", sig)
		os.Exit(signalExitCode(sig))
	}()

	wall0 := time.Now()
	res, err := m.Run(prog)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(wall0)

	if watchStop != nil {
		close(watchStop)
		<-watchDone
	}
	if *seriesOut != "" {
		if err := writeSeries(*seriesOut, sampler.Export(fmt.Sprintf("%s/%s/%s", *app, kind, mode))); err != nil {
			fatal(err)
		}
	}

	fmt.Fprintf(out, "scale=%.2f minfree=%d\n", cfg.Scale, cfg.MinFreeFrames)
	fmt.Fprintln(out, res)
	if *util {
		fmt.Fprintln(out, m.UtilizationTable())
	}
	if *metricsF {
		printSnapshot(os.Stdout, reg.Snapshot())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		label := fmt.Sprintf("nwsim %s/%s/%s", *app, kind, mode)
		if err := tr.WriteChrome(f, label); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *maniOut != "" {
		params, err := json.Marshal(cfg)
		if err != nil {
			fatal(err)
		}
		man := &obs.Manifest{
			Tool:       "nwsim",
			App:        *app,
			Machine:    kind.String(),
			Prefetch:   mode.String(),
			Seed:       cfg.Seed,
			Params:     params,
			WallNS:     wall.Nanoseconds(),
			SimPcycles: res.ExecTime,
			Metrics:    reg.Snapshot(),
			Digest:     dw.Sum(),
			TraceSpans: tr.Len(),
			CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		}
		man.TraceDropped = tr.Dropped()
		if err := man.WriteFile(*maniOut); err != nil {
			fatal(err)
		}
	}
}

// printSnapshot renders a metric snapshot as aligned name/value text.
func printSnapshot(w io.Writer, snap obs.Snapshot) {
	fmt.Fprintf(w, "\nmetrics (%d):\n", len(snap))
	for _, mv := range snap {
		switch mv.Kind {
		case "histogram":
			fmt.Fprintf(w, "  %-36s n=%d sum=%d min=%d max=%d\n",
				mv.Name, mv.Count, mv.Sum, mv.Min, mv.Max)
		case "timegauge":
			mean := 0.0
			if mv.Span > 0 {
				mean = float64(mv.Integral) / float64(mv.Span)
			}
			fmt.Fprintf(w, "  %-36s last=%d peak=%d mean=%.2f\n",
				mv.Name, mv.Value, mv.Peak, mean)
		case "gauge":
			if mv.Peak != 0 {
				fmt.Fprintf(w, "  %-36s %d (peak %d)\n", mv.Name, mv.Value, mv.Peak)
				continue
			}
			fmt.Fprintf(w, "  %-36s %d\n", mv.Name, mv.Value)
		default:
			fmt.Fprintf(w, "  %-36s %d\n", mv.Name, mv.Value)
		}
	}
}

// writeSeries writes sampled series to path — CSV when the name ends in
// .csv, NDJSON otherwise.
func writeSeries(path string, series []obs.SeriesData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = obs.WriteSeriesCSV(f, series)
	} else {
		err = obs.WriteSeriesNDJSON(f, series)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	watcher.Restore() // os.Exit skips defers; hand the terminal back here
	fmt.Fprintln(os.Stderr, "nwsim:", err)
	os.Exit(1)
}

// signalExitCode maps a fatal signal to the conventional 128+N shell
// exit code (130 for SIGINT, 143 for SIGTERM).
func signalExitCode(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return 128 + int(s)
	}
	return 1
}

// writeMemProfile snapshots the heap into path (no-op when empty). A GC
// runs first so the profile reflects live objects, not garbage.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwsim:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "nwsim:", err)
	}
}
