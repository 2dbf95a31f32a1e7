// Command nwsweep runs grid sweeps: a declarative grid spec (see
// internal/sweep) run shard-by-shard with checkpoint/resume and a
// content-addressed result cache, then merged into one set of artifacts:
//
//	nwsweep -grid spec.txt -dir out/ -shard 0/4     # run one shard
//	nwsweep -grid spec.txt -dir out/ -merge -shards 4
//
// The parameter-sensitivity experiments of §5 and the ablations and
// extensions of DESIGN.md's experiment index are checked-in specs under
// sweeps/ (minfree, diskcache, ring, channels, nodes, wbuf, drain,
// swapdepth, armsched, prefetch, baseline):
//
//	nwsweep -grid sweeps/minfree.txt -dir out/minfree
//	nwsweep -grid sweeps/minfree.txt -dir out/minfree -merge
//
// -merge prints two pivot tables, execution time (Mpcycles) and average
// swap-out time (Kpcycles): one row per application, one column per
// combination of the spec's other axes.
//
// A shard killed mid-sweep resumes exactly where it stopped (the STATE
// file in -dir is replayed); re-running a completed shard — or an
// overlapping sweep sharing the same -cache directory — executes zero
// fresh cells. -max-cells caps fresh simulations per invocation.
// -merge streams the shard outputs into merged.ndjson +
// merged.manifest.json (+ merged.series.ndjson when the spec samples
// series), which are byte-identical however the sweep was interrupted
// or sharded.
//
// # Supervision
//
// -cell-budget and -cell-stall arm a per-cell watchdog: a cell that
// exceeds its wall-clock budget, or whose simulated clock stops
// advancing for the stall window, is aborted and quarantined as a
// STATE poison record — as is a cell that panics. The shard keeps
// going; a later run with -retry-poison re-admits quarantined cells.
// SIGINT/SIGTERM drain gracefully: the shard stops admitting cells,
// finishes and checkpoints what is in flight, and exits resumable; a
// second signal kills immediately with code 128+signal.
//
// -chaos-fs injects seeded host filesystem faults (see
// internal/guard's chaos plans) under the sweep directory, and
// -chaos-panic makes matching cells panic — both exist so CI can
// prove the supervision layer end to end.
//
// # Exit codes
//
//	0  the shard (or merge) completed
//	1  hard error: bad flags, corrupt inputs, terminal I/O failure
//	3  incomplete but resumable: -max-cells budget spent, or a
//	   signal drained the shard; invoke again to continue
//	4  every cell has a STATE record but poisoned cells remain;
//	   re-run with -retry-poison (or fix the cell) to clear them
//
//	128+signal  a second SIGINT/SIGTERM forced an immediate exit
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/obs"
	"nwcache/internal/sweep"
)

// Exit codes of the grid mode, also documented in the package comment.
const (
	exitOK         = 0
	exitHard       = 1
	exitIncomplete = 3
	exitPoisoned   = 4
)

func main() {
	var (
		quiet    = flag.Bool("q", false, "suppress progress output")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max simulations to run concurrently")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory (default: <dir>/cache)")

		gridSpec = flag.String("grid", "", "grid spec file (see internal/sweep; the paper's sweeps are in sweeps/)")
		dir      = flag.String("dir", "", "sweep output directory")
		shard    = flag.String("shard", "0/1", "shard to run, i/n")
		maxCells = flag.Int("max-cells", 0, "cap fresh simulations this invocation; exit 3 while incomplete")
		merge    = flag.Bool("merge", false, "merge completed shard outputs instead of running")
		shards   = flag.Int("shards", 1, "total shard count for -merge")
		events   = flag.String("events-out", "", "write the shard's lifecycle event stream to this NDJSON file")

		cellBudget  = flag.Duration("cell-budget", 0, "wall-clock budget per cell; over-budget cells are aborted and quarantined (0 = unlimited)")
		cellStall   = flag.Duration("cell-stall", 0, "abort a cell whose simulated clock stops advancing for this long (0 = never)")
		retryPoison = flag.Bool("retry-poison", false, "re-admit cells quarantined by an earlier run's poison records")
		ioRetries   = flag.Int("io-retries", 0, "attempts per transient host I/O fault before giving up (0 = guard default)")
		chaosFS     = flag.String("chaos-fs", "", "chaos plan file: inject seeded host filesystem faults under -dir (see internal/guard)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for the -chaos-fs fault stream")
		chaosPanic  = flag.String("chaos-panic", "", "panic cells whose label (plus ' seed=N') contains this substring (supervision test hook)")
	)
	flag.Parse()

	os.Exit(runGrid(gridOpts{
		specPath: *gridSpec, dir: *dir, shardSpec: *shard, cacheDir: *cacheDir,
		jobs: *jobs, maxCells: *maxCells, shards: *shards,
		doMerge: *merge, quiet: *quiet, eventsOut: *events,
		cellBudget: *cellBudget, cellStall: *cellStall, retryPoison: *retryPoison,
		ioRetries: *ioRetries,
		chaosFS:   *chaosFS, chaosSeed: *chaosSeed, chaosPanic: *chaosPanic,
	}))
}

// gridOpts carries the flag values.
type gridOpts struct {
	specPath, dir, shardSpec, cacheDir string
	jobs, maxCells, shards             int
	doMerge, quiet                     bool
	eventsOut                          string

	cellBudget, cellStall time.Duration
	retryPoison           bool
	ioRetries             int
	chaosFS               string
	chaosSeed             uint64
	chaosPanic            string
}

// runGrid runs one shard of a grid spec with checkpoint/resume (or,
// with doMerge, streams completed shard outputs into the merged
// artifacts). Returns the process exit code (see the package comment's
// taxonomy).
func runGrid(o gridOpts) int {
	if o.specPath == "" || o.dir == "" {
		fatal(fmt.Errorf("need -grid SPEC and -dir DIR"))
	}
	spec, err := sweep.ParseSpecFile(o.specPath)
	if err != nil {
		fatal(err)
	}

	// Optional chaos filesystem, scoped to the sweep directory so the
	// injected faults can never touch unrelated host files.
	var fsys guard.FS
	if o.chaosFS != "" {
		raw, err := os.ReadFile(o.chaosFS)
		if err != nil {
			fatal(err)
		}
		plan, err := guard.ParseChaos(string(raw))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", o.chaosFS, err))
		}
		cfs := guard.NewChaosFS(nil, plan, o.chaosSeed, o.dir)
		defer func() {
			st := cfs.Stats()
			fmt.Fprintf(os.Stderr,
				"nwsweep: chaos: %d/%d syncs, %d/%d writes (%d torn, %d enospc), %d/%d reads, %d/%d renames faulted\n",
				st.SyncFails, st.Syncs, st.ShortWrites+st.ENOSPCs, st.Writes, st.ShortWrites, st.ENOSPCs,
				st.ReadFails, st.Reads, st.RenameFails, st.Renames)
		}()
		fsys = cfs
	}

	if o.doMerge {
		cells, err := sweep.MergeOn(fsys, nil, spec, o.dir, o.shards, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "nwsweep: merged %d cells from %d shards\n", cells, o.shards)
		}
		return exitOK
	}
	i, n, err := parseShard(o.shardSpec)
	if err != nil {
		fatal(err)
	}

	// Graceful drain: the first SIGINT/SIGTERM stops cell admission —
	// in-flight cells finish and checkpoint, the shard exits resumable
	// (code 3). A second signal kills immediately with 128+signal.
	var draining atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		draining.Store(true)
		fmt.Fprintf(os.Stderr, "nwsweep: %v — draining (signal again to kill)\n", sig)
		sig = <-sigc
		fmt.Fprintf(os.Stderr, "nwsweep: %v — killed\n", sig)
		if s, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(s))
		}
		os.Exit(exitHard)
	}()

	r := &sweep.Runner{
		Spec:        spec,
		Shard:       i,
		Shards:      n,
		Dir:         o.dir,
		Pool:        pool.New(o.jobs),
		CacheDir:    o.cacheDir,
		MaxFresh:    o.maxCells,
		FS:          fsys,
		Guard:       guard.CellGuard{Budget: o.cellBudget, Stall: o.cellStall},
		RetryPoison: o.retryPoison,
		Draining:    draining.Load,
	}
	// One event stream carries everything the run reports: the progress
	// and poison lines on stderr and, with -events-out, the NDJSON file.
	var record func(obs.Event)
	r.OnEvent = func(ev obs.Event) {
		switch {
		case ev.Type == obs.EventCellStart && !o.quiet:
			fmt.Fprintf(os.Stderr, "running %s...\n", ev.Cell)
		case ev.Type == obs.EventCellPoisoned && ev.Reason != sweep.ReasonQuarantined:
			fmt.Fprintf(os.Stderr, "nwsweep: poisoned %s: %s\n", ev.Cell, ev.Reason)
		}
		if record != nil {
			record(ev)
		}
	}
	if o.eventsOut != "" {
		// The same NDJSON event stream the service's /jobs/{id}/events
		// endpoint serves, written as a file: seqs are stamped here since
		// there is no event log in between.
		ef, err := os.Create(o.eventsOut)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(ef)
		enc := json.NewEncoder(bw)
		var seq int64
		record = func(ev obs.Event) {
			seq++
			ev.Seq = seq
			enc.Encode(ev) //nolint:errcheck // flush error is checked below
		}
		defer func() {
			if err := bw.Flush(); err == nil {
				err = ef.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "nwsweep: writing %s: %v\n", o.eventsOut, err)
				}
			} else {
				ef.Close()
				fmt.Fprintf(os.Stderr, "nwsweep: writing %s: %v\n", o.eventsOut, err)
			}
		}()
	}
	if o.ioRetries > 0 {
		// A wider budget than the guard default: chaos plans (and
		// genuinely flaky filesystems) can burn several attempts on one
		// deterministic fault window before the first clean try.
		pol := guard.DefaultRetryPolicy(0)
		pol.Max = o.ioRetries
		r.Retry = guard.NewRetrier(pol)
	}
	if o.chaosPanic != "" {
		r.Sabotage = func(c core.Cell) bool {
			return strings.Contains(fmt.Sprintf("%s seed=%d", c.Label(), c.Cfg.Seed), o.chaosPanic)
		}
	}
	sum, err := r.Run()
	fmt.Fprintf(os.Stderr, "nwsweep: %s\n", sum)
	switch {
	case errors.Is(err, sweep.ErrIncomplete):
		return exitIncomplete
	case errors.Is(err, sweep.ErrPoisoned):
		fmt.Fprintln(os.Stderr, "nwsweep:", err)
		return exitPoisoned
	case err != nil:
		fatal(err)
	}
	return exitOK
}

// parseShard decodes "i/n"; anything else, trailing input included, is
// an error.
func parseShard(s string) (i, n int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if !ok || err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: index out of range", s)
	}
	return i, n, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwsweep:", err)
	os.Exit(1)
}
