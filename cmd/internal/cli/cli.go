// Package cli is the run plumbing nwsim and nwbench share: their
// observability and profiling flags, one observer that gives every fresh
// simulation its own registry, span trace and time-series sampler, the
// writers for -trace-out, -series-out and -manifest-out, and the process
// lifecycle (CPU and heap profiles, the -http server and -watch
// dashboard, the 128+signal exit, the exit code of an error).
//
// A command body parses its flags with Parse, calls Flags.Start, attaches
// Session.Observe to every cell it runs, prints its primary output to
// Session.Out, and ends with Session.Finish; main is Main(tool, body).
package cli

import (
	"encoding/json"
	"errors"
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
	"nwcache/internal/machine"
	"nwcache/internal/obs"
)

// Flags are the observability and profiling flags of a run front-end.
type Flags struct {
	TraceOut       string // Chrome trace, one process per fresh simulation
	ManifestOut    string // run manifest with the stdout digest
	SeriesOut      string // time series, NDJSON
	SeriesInterval int64  // sampling interval in pcycles
	Watch          bool   // live ANSI dashboard on stderr
	HTTP           string // live /metrics and /series address
	CPUProfile     string
	MemProfile     string

	// Metrics asks for a registry per run even when no artifact needs
	// one (nwsim -metrics prints Session.Snapshot).
	Metrics bool
}

// Register defines the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON, one process per simulation (Perfetto-loadable)")
	fs.StringVar(&f.ManifestOut, "manifest-out", "", "write a run manifest JSON (params, seed, merged metrics, stdout digest)")
	fs.Func("series-out", "write per-simulation time-series telemetry to this file (NDJSON)", f.setSeriesOut)
	fs.Int64Var(&f.SeriesInterval, "series-interval", 500_000, "telemetry sampling interval in pcycles")
	fs.BoolVar(&f.Watch, "watch", false, "render a live ANSI telemetry dashboard on stderr while simulations run")
	fs.StringVar(&f.HTTP, "http", "", "serve live telemetry over HTTP on this address (/metrics Prometheus text, /series NDJSON stream)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// setSeriesOut sets -series-out, refusing a .csv path before any run:
// series of runs of different length do not align into one CSV matrix,
// so NDJSON is the one series format.
func (f *Flags) setSeriesOut(path string) error {
	if strings.HasSuffix(path, ".csv") {
		return errors.New("series are written as NDJSON only (CSV output was removed); name a .ndjson file")
	}
	f.SeriesOut = path
	return nil
}

func (f *Flags) live() bool   { return f.Watch || f.HTTP != "" }
func (f *Flags) series() bool { return f.SeriesOut != "" || f.live() }

// observing reports whether any consumer needs a per-run registry.
func (f *Flags) observing() bool {
	return f.TraceOut != "" || f.ManifestOut != "" || f.Metrics || f.series()
}

// obsRun is the observation of one fresh simulation.
type obsRun struct {
	label string
	key   string // orders runs whose labels tie
	reg   *obs.Registry
	tr    *obs.Trace   // nil without -trace-out
	smp   *obs.Sampler // nil without a series consumer
}

// Session is one invocation's observation state and lifecycle.
type Session struct {
	Flags
	tool   string
	out    io.Writer
	digest *obs.DigestWriter
	start  time.Time

	cpu     *os.File
	liveSet *obs.LiveSet
	srv     *obs.LiveServer
	watcher *obs.Watcher
	stopW   chan struct{}
	doneW   chan struct{}
	sigc    chan os.Signal

	mu   sync.Mutex
	runs []obsRun
}

// Start validates the flags and starts what runs for the whole
// invocation: the CPU profile, the -http server, the -watch dashboard
// and the SIGINT/SIGTERM handler, which hands the terminal back and
// exits 128+signal. The caller must defer Close.
func (f Flags) Start(tool string, stdout io.Writer) (_ *Session, err error) {
	if f.series() && f.SeriesInterval <= 0 {
		return nil, fmt.Errorf("-series-interval must be positive, got %d", f.SeriesInterval)
	}
	s := &Session{Flags: f, tool: tool, out: stdout, start: time.Now()}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if f.ManifestOut != "" {
		// The manifest pins the exact bytes of the primary output.
		s.digest = obs.NewDigestWriter(stdout)
		s.out = s.digest
	}
	if f.CPUProfile != "" {
		if s.cpu, err = os.Create(f.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(s.cpu); err != nil {
			return nil, err
		}
	}
	if f.live() {
		s.liveSet = &obs.LiveSet{}
		if f.HTTP != "" {
			if s.srv, err = obs.StartLiveServer(f.HTTP, s.liveSet); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%s: live telemetry on http://%s (/metrics, /series)\n", tool, s.srv.Addr())
		}
		if f.Watch {
			s.watcher = &obs.Watcher{Set: s.liveSet, Out: os.Stderr}
			s.stopW, s.doneW = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(s.doneW)
				s.watcher.Run(s.stopW)
			}()
		}
	}
	// Installed after the watcher exists so the handler sees it.
	s.sigc = make(chan os.Signal, 2)
	signal.Notify(s.sigc, os.Interrupt, syscall.SIGTERM)
	go func(sigc <-chan os.Signal) {
		if sig, ok := <-sigc; ok {
			s.watcher.Restore()
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, sig)
			os.Exit(128 + int(sig.(syscall.Signal)))
		}
	}(s.sigc)
	return s, nil
}

// Out is where the primary output goes: stdout, through the digest tee
// when a manifest is requested.
func (s *Session) Out() io.Writer { return s.out }

// Observe is the hook attached to every fresh simulation (core.Cell.Obs,
// exp.Suite.AddObserver): it gives the run a registry, a span trace for
// -trace-out, and a sampler when a series consumer is set, published to
// the live set. Observation never changes a result. Safe for concurrent
// calls; a no-op when nothing observes.
func (s *Session) Observe(c core.Cell, m *machine.Machine) {
	if !s.observing() {
		return
	}
	r := obsRun{label: c.Label(), key: c.Key(), reg: obs.NewRegistry()}
	if s.TraceOut != "" {
		r.tr = obs.NewTrace(0)
	}
	m.Observe(r.reg, r.tr)
	if s.series() {
		r.smp = obs.NewSampler(r.reg, s.SeriesInterval, 0)
		m.StartSampler(r.smp)
		if s.liveSet != nil {
			s.liveSet.Add(r.smp.Publish(r.label))
		}
	}
	s.mu.Lock()
	s.runs = append(s.runs, r)
	s.mu.Unlock()
}

// sortedRuns returns the observed runs sorted by label (then cell key),
// so output is reproducible whatever order a worker pool ran them in.
func (s *Session) sortedRuns() []obsRun {
	s.mu.Lock()
	runs := append([]obsRun(nil), s.runs...)
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].label != runs[j].label {
			return runs[i].label < runs[j].label
		}
		return runs[i].key < runs[j].key
	})
	return runs
}

// Snapshot merges every run's metric snapshot.
func (s *Session) Snapshot() obs.Snapshot {
	var merged obs.Fold
	for _, r := range s.sortedRuns() {
		merged.Add(r.reg.Snapshot())
	}
	return merged.Snapshot()
}

// StopWatch draws the dashboard's final frame and stops it, so nothing
// repaints over output printed afterwards. Idempotent.
func (s *Session) StopWatch() {
	if s.stopW != nil {
		close(s.stopW)
		<-s.doneW
		s.stopW = nil
	}
}

// Finish stops the dashboard and writes the requested artifacts: the
// series file, the Chrome trace (one process per run, in label order) and
// the manifest. Each is written on its own, so one that fails does not
// cost the others; the error joins every failure. man carries the
// tool-specific fields (App, Machine, Prefetch, SimPcycles for a single
// run); Finish fills in the rest.
func (s *Session) Finish(cfg core.Config, man obs.Manifest) error {
	s.StopWatch()
	runs := s.sortedRuns()
	var errs []error
	if s.SeriesOut != "" {
		var series []obs.SeriesData
		for _, r := range runs {
			series = append(series, r.smp.Export(r.label)...)
		}
		errs = append(errs, writeFile(s.SeriesOut, func(w io.Writer) error { return obs.WriteSeriesNDJSON(w, series) }))
	}
	if s.TraceOut != "" {
		named := make([]obs.NamedTrace, len(runs))
		for i, r := range runs {
			named[i] = obs.NamedTrace{Name: r.label, Trace: r.tr}
		}
		errs = append(errs, writeFile(s.TraceOut, func(w io.Writer) error { return obs.WriteChromeMulti(w, named) }))
	}
	if s.ManifestOut != "" {
		errs = append(errs, s.writeManifest(cfg, man, runs))
	}
	return errors.Join(errs...)
}

// writeManifest fills in man's invocation-wide fields and writes it.
func (s *Session) writeManifest(cfg core.Config, man obs.Manifest, runs []obsRun) error {
	params, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	man.Tool = s.tool
	man.Seed = cfg.Seed
	man.Runs = len(runs)
	man.Params = params
	man.WallNS = time.Since(s.start).Nanoseconds()
	man.Metrics = s.Snapshot()
	man.Digest = s.digest.Sum()
	for _, r := range runs {
		man.TraceSpans += r.tr.Len()
		man.TraceDropped += r.tr.Dropped()
	}
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	return man.WriteFile(s.ManifestOut)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close ends the invocation: it stops the dashboard and hands the
// terminal back, closes the -http server, removes the signal handler,
// stops the CPU profile and writes the heap profile.
func (s *Session) Close() {
	s.StopWatch()
	if s.srv != nil {
		s.srv.Close()
	}
	if s.sigc != nil {
		signal.Stop(s.sigc)
		close(s.sigc)
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		s.cpu.Close()
	}
	if s.MemProfile != "" {
		// A GC first, so the profile shows live objects, not garbage.
		runtime.GC()
		if err := writeFile(s.MemProfile, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.tool, err)
		}
	}
}

// usageError marks a flag-parsing failure, which the flag package has
// already reported together with the usage text.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Parse parses args into fs (built with flag.ContinueOnError).
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// Main runs a command body with the process's arguments and stdout, and
// exits 0 on success or -h, 2 on a bad flag, and 1 on any other error,
// printed as "tool: error" on stderr.
func Main(tool string, run func(args []string, stdout io.Writer) error) {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
