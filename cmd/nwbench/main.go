// Command nwbench regenerates the paper's evaluation: Tables 2-8 and the
// execution-time breakdowns of Figures 3 and 4, over the seven
// applications on both machines and both prefetching extremes.
//
// Usage:
//
//	nwbench [-scale 1.0] [-seed 1] [-table N | -figure N | -all] [-q]
//	        [-j N] [-trace-out trace.json] [-manifest-out manifest.json]
//	        [-cpuprofile out.pb.gz] [-memprofile out.pb.gz]
//
// With no selection flags, everything is printed (-all).
//
// Exit codes: 0 on success, 1 on error, 128+signal when killed by
// SIGINT/SIGTERM. Every exit path — including signals and fatal
// errors — restores the -watch dashboard's terminal state (cursor
// visibility, ANSI attributes) first. Tables are cheap to re-run;
// checkpointed, resumable execution lives in nwsweep's grid mode.
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
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp"
	"nwcache/internal/exp/pool"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/stats"
)

// obsRun is the observation of one executed simulation: its registry,
// (when tracing) its span trace, and (when sampling) its time-series
// sampler, labeled by the cell.
type obsRun struct {
	label string
	reg   *obs.Registry
	tr    *obs.Trace
	smp   *obs.Sampler
}

// watcher is the live dashboard, when -watch armed one; fatal and the
// signal handler restore its terminal state before exiting (Restore
// is nil-safe and idempotent).
var watcher *obs.Watcher

func main() {
	// A panic must not strand the terminal with a hidden cursor.
	defer func() { watcher.Restore() }()
	var (
		scale       = flag.Float64("scale", 1.0, "workload scale (1.0 = paper's Table 2 inputs)")
		seed        = flag.Int64("seed", 1, "deterministic simulation seed")
		tableN      = flag.Int("table", 0, "print only table N (2-8)")
		figureN     = flag.Int("figure", 0, "print only figure N (3 or 4)")
		all         = flag.Bool("all", false, "print every table and figure")
		quiet       = flag.Bool("q", false, "suppress progress output")
		format      = flag.String("format", "text", "output format: text or csv")
		report      = flag.Bool("report", false, "emit a markdown paper-vs-measured report")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "max simulations to run concurrently")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON (one process per simulation) to this file")
		manifestOut = flag.String("manifest-out", "", "write a run-manifest JSON (params, seed, merged metrics, stdout digest) to this file")
		seriesOut   = flag.String("series-out", "", "write per-simulation time-series telemetry to this file (NDJSON, or CSV with a .csv suffix)")
		seriesIntv  = flag.Int64("series-interval", 500_000, "telemetry sampling interval in pcycles")
		watch       = flag.Bool("watch", false, "render a live ANSI telemetry dashboard on stderr while simulations run")
		httpAddr    = flag.String("http", "", "serve live telemetry over HTTP on this address (/metrics Prometheus text, /series NDJSON stream)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		reliability = flag.String("reliability", "", "run the fault-injection reliability matrix for this application instead of the tables")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the reliability matrix's fault injector")
	)
	flag.IntVar(jobs, "parallel", runtime.GOMAXPROCS(0), "alias for -j")
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

	cfg := core.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	suite := exp.NewSuiteOn(cfg, pool.New(*jobs))
	if !*quiet {
		suite.Progress = func(label string) {
			fmt.Fprintf(os.Stderr, "running %s...\n", label)
		}
	}

	// The primary output goes through a digest tee when a manifest is
	// requested, so the manifest pins the exact bytes printed.
	var out io.Writer = os.Stdout
	var dw *obs.DigestWriter
	if *manifestOut != "" {
		dw = obs.NewDigestWriter(os.Stdout)
		out = dw
	}

	// Observation collector: each executed simulation gets its own
	// registry (and trace, when requested); cells served from the memo
	// cache never fire the hook, so runs holds exactly the fresh work.
	var (
		obsMu sync.Mutex
		runs  []obsRun
	)
	wantSeries := *seriesOut != "" || *watch || *httpAddr != ""
	if wantSeries && *seriesIntv <= 0 {
		fatal(fmt.Errorf("-series-interval must be positive, got %d", *seriesIntv))
	}
	var liveSet *obs.LiveSet
	var watchStop, watchDone chan struct{}
	if *watch || *httpAddr != "" {
		liveSet = &obs.LiveSet{}
		if *httpAddr != "" {
			srv, err := obs.StartLiveServer(*httpAddr, liveSet)
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "nwbench: live telemetry on http://%s (/metrics, /series)\n", srv.Addr())
		}
		if *watch {
			watcher = &obs.Watcher{Set: liveSet, Out: os.Stderr}
			watchStop = make(chan struct{})
			watchDone = make(chan struct{})
			go func() {
				defer close(watchDone)
				watcher.Run(watchStop)
			}()
		}
	}

	// SIGINT/SIGTERM: hand the terminal back and exit 128+signal.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		watcher.Restore()
		fmt.Fprintf(os.Stderr, "nwbench: %v\n", sig)
		if s, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(s))
		}
		os.Exit(1)
	}()
	if *traceOut != "" || *manifestOut != "" || wantSeries {
		wantTrace := *traceOut != ""
		intv := *seriesIntv
		suite.AddObserver(func(c core.Cell, m *machine.Machine) {
			r := obsRun{label: c.Label(), reg: obs.NewRegistry()}
			if wantTrace {
				r.tr = obs.NewTrace(0)
			}
			m.Observe(r.reg, r.tr)
			if wantSeries {
				r.smp = obs.NewSampler(r.reg, intv, 0)
				m.StartSampler(r.smp)
				if liveSet != nil {
					liveSet.Add(r.smp.Publish(r.label))
				}
			}
			obsMu.Lock()
			runs = append(runs, r)
			obsMu.Unlock()
		})
	}

	start := time.Now()
	if *reliability != "" {
		// Naive demand paging sends every miss to the media, so the
		// escalating fault plans actually exercise the disks and the ring;
		// optimal prefetching would hide most injected faults behind the
		// controller cache.
		t, err := suite.ReliabilityMatrix(*reliability, core.Naive, *faultSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, t)
	} else if err := runSelections(suite, out, *report, *all, *tableN, *figureN, *format, *jobs); err != nil {
		fatal(err)
	}

	if watchStop != nil {
		close(watchStop)
		<-watchDone
	}

	// Scheduling order is nondeterministic under -j; sort by label so
	// trace process order, merged metrics, and series output are
	// reproducible.
	sort.Slice(runs, func(i, j int) bool { return runs[i].label < runs[j].label })

	if *seriesOut != "" {
		var all []obs.SeriesData
		for _, r := range runs {
			all = append(all, r.smp.Export(r.label)...)
		}
		if err := writeSeries(*seriesOut, all); err != nil {
			fatal(err)
		}
	}

	if *traceOut != "" {
		named := make([]obs.NamedTrace, 0, len(runs))
		for _, r := range runs {
			if r.tr != nil {
				named = append(named, obs.NamedTrace{Name: r.label, Trace: r.tr})
			}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeMulti(f, named); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *manifestOut != "" {
		var merged obs.Snapshot
		var spans int
		var dropped uint64
		for _, r := range runs {
			merged = merged.Merge(r.reg.Snapshot())
			if r.tr != nil {
				spans += r.tr.Len()
				dropped += r.tr.Dropped()
			}
		}
		params, err := json.Marshal(cfg)
		if err != nil {
			fatal(err)
		}
		man := &obs.Manifest{
			Tool:         "nwbench",
			Seed:         *seed,
			Runs:         len(runs),
			Params:       params,
			WallNS:       time.Since(start).Nanoseconds(),
			Metrics:      merged,
			Digest:       dw.Sum(),
			TraceSpans:   spans,
			TraceDropped: dropped,
			CreatedAt:    time.Now().UTC().Format(time.RFC3339),
		}
		if err := man.WriteFile(*manifestOut); err != nil {
			fatal(err)
		}
	}
}

// runSelections executes the selected tables/figures, writing the primary
// report to out.
func runSelections(suite *exp.Suite, out io.Writer, report, all bool, tableN, figureN int, format string, jobs int) error {
	if report {
		if err := suite.Prewarm(jobs); err != nil {
			return err
		}
		return suite.Report(out)
	}
	if tableN == 0 && figureN == 0 {
		all = true
	}
	if all {
		if err := suite.Prewarm(jobs); err != nil {
			return err
		}
		if format == "csv" {
			return suite.WriteAllCSV(out)
		}
		return suite.WriteAll(out)
	}
	if tableN != 0 {
		var t *stats.Table
		var err error
		switch tableN {
		case 2:
			t = suite.Table2()
		case 3:
			t, err = suite.Table3()
		case 4:
			t, err = suite.Table4()
		case 5:
			t, err = suite.Table5()
		case 6:
			t, err = suite.Table6()
		case 7:
			t, err = suite.Table7()
		case 8:
			t, err = suite.Table8()
		default:
			return fmt.Errorf("no table %d (have 2-8)", tableN)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
	}
	if figureN != 0 {
		var mode core.PrefetchMode
		switch figureN {
		case 3:
			mode = core.Optimal
		case 4:
			mode = core.Naive
		default:
			return fmt.Errorf("no figure %d (have 3 and 4)", figureN)
		}
		t, err := suite.Figure(mode)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
		chart, err := suite.FigureBars(mode)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, chart)
	}
	return nil
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
	fmt.Fprintln(os.Stderr, "nwbench:", err)
	os.Exit(1)
}

// writeMemProfile snapshots the heap into path (no-op when empty). A GC
// runs first so the profile reflects live objects, not garbage.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwbench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "nwbench:", err)
	}
}
