// Command nwsweep runs the parameter-sensitivity experiments of §5 and the
// design-choice ablations and extensions of DESIGN.md's experiment index:
//
//	-sweep minfree    minimum-free-frames sensitivity (the paper's first
//	                  §5 experiment: best floor per machine/prefetch)
//	-sweep diskcache  disk controller cache size on the standard machine
//	                  (the paper's "huge disk cache needed to approach the
//	                  NWCache" observation)
//	-sweep ring       optical storage per channel (NWCache capacity)
//	-sweep channels   OTDM multi-channel extension (§4)
//	-sweep nodes      machine-size scaling (4..32 nodes)
//	-sweep wbuf       Figure 1's coalescing write buffer depths
//	-sweep drain      drain policy: most-loaded vs round-robin (ablation)
//	-sweep swapdepth  outstanding swap-outs per node (ablation)
//	-sweep armsched   disk arm FCFS vs read-priority scheduling
//	-sweep prefetch   naive vs streamed vs optimal prefetching
//	-sweep baseline   Standard vs Standard+DCD (§6) vs NWCache
//
// Each sweep prints one table of execution times (Mpcycles) per
// application. Simulations are scheduled on a shared worker pool (-j);
// cells shared between columns (or repeated invocations of the same
// process) run exactly once.
//
// Scale-out grid mode (-grid) replaces the fixed tables with a
// declarative grid spec (see internal/sweep) run shard-by-shard with
// checkpoint/resume and a content-addressed result cache:
//
//	nwsweep -grid spec.txt -dir out/ -shard 0/4     # run one shard
//	nwsweep -grid spec.txt -dir out/ -merge -shards 4
//
// A shard killed mid-sweep resumes exactly where it stopped (the STATE
// file in -dir is replayed); re-running a completed shard — or an
// overlapping sweep sharing the same -cache directory — executes zero
// fresh cells. -max-cells caps fresh simulations per invocation.
// -merge streams the shard outputs into merged.ndjson +
// merged.manifest.json (+ merged.series.ndjson when the spec samples
// series), which are byte-identical however the sweep was interrupted
// or sharded. The classic table sweeps accept -cache too, routing the
// worker pool's memoization through the same on-disk cache.
//
// # Supervision (grid mode)
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
// # Exit codes (grid mode)
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
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/obs"
	"nwcache/internal/stats"
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
		sweepName = flag.String("sweep", "minfree", "minfree | diskcache | ring | channels | nodes | wbuf | drain | swapdepth | armsched | prefetch | baseline")
		scale     = flag.Float64("scale", 1.0, "workload scale")
		seed      = flag.Int64("seed", 1, "simulation seed")
		apps      = flag.String("apps", "", "comma-separated app subset (default: all)")
		prefetch  = flag.String("prefetch", "optimal", "prefetch mode for the sweep: naive or optimal")
		quiet     = flag.Bool("q", false, "suppress progress output")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "max simulations to run concurrently")
		cacheDir  = flag.String("cache", "", "content-addressed result cache directory (default in grid mode: <dir>/cache)")

		gridSpec = flag.String("grid", "", "grid spec file: run in scale-out sweep mode (see internal/sweep)")
		dir      = flag.String("dir", "", "sweep output directory (grid mode)")
		shard    = flag.String("shard", "0/1", "shard to run, i/n (grid mode)")
		maxCells = flag.Int("max-cells", 0, "cap fresh simulations this invocation; exit 3 while incomplete (grid mode)")
		merge    = flag.Bool("merge", false, "merge completed shard outputs instead of running (grid mode)")
		shards   = flag.Int("shards", 1, "total shard count for -merge")
		events   = flag.String("events-out", "", "write the shard's lifecycle event stream to this NDJSON file (grid mode)")

		cellBudget  = flag.Duration("cell-budget", 0, "wall-clock budget per cell; over-budget cells are aborted and quarantined (grid mode; 0 = unlimited)")
		cellStall   = flag.Duration("cell-stall", 0, "abort a cell whose simulated clock stops advancing for this long (grid mode; 0 = never)")
		retryPoison = flag.Bool("retry-poison", false, "re-admit cells quarantined by an earlier run's poison records (grid mode)")
		ioRetries   = flag.Int("io-retries", 0, "attempts per transient host I/O fault before giving up (grid mode; 0 = guard default)")
		chaosFS     = flag.String("chaos-fs", "", "chaos plan file: inject seeded host filesystem faults under -dir (grid mode; see internal/guard)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for the -chaos-fs fault stream")
		chaosPanic  = flag.String("chaos-panic", "", "panic cells whose label (plus ' seed=N') contains this substring (grid mode; supervision test hook)")
	)
	flag.Parse()

	if *gridSpec != "" {
		os.Exit(runGrid(gridOpts{
			specPath: *gridSpec, dir: *dir, shardSpec: *shard, cacheDir: *cacheDir,
			jobs: *jobs, maxCells: *maxCells, shards: *shards,
			doMerge: *merge, quiet: *quiet, eventsOut: *events,
			cellBudget: *cellBudget, cellStall: *cellStall, retryPoison: *retryPoison,
			ioRetries: *ioRetries,
			chaosFS:   *chaosFS, chaosSeed: *chaosSeed, chaosPanic: *chaosPanic,
		}))
	}

	mode := core.Optimal
	if *prefetch == "naive" {
		mode = core.Naive
	}
	base := core.DefaultConfig()
	base.Scale = *scale
	base.Seed = *seed

	list := core.Apps()
	if *apps != "" {
		list = splitComma(*apps)
	}
	sched := pool.New(*jobs)
	if *cacheDir != "" {
		c, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		sched.SetBacking(c)
	}
	progress := func(label string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s...\n", label)
		}
	}

	// grid simulates one cell per (application, column): the whole grid is
	// submitted to the pool before any result is collected, so up to -j
	// cells run concurrently, and results come back in deterministic
	// (row, column) order regardless of completion order.
	grid := func(cols int, cell func(app string, col int) core.Cell) [][]*core.Result {
		futs := make([][]*pool.Future, len(list))
		for i, app := range list {
			futs[i] = make([]*pool.Future, cols)
			for c := 0; c < cols; c++ {
				cl := cell(app, c)
				f, fresh := sched.Submit(cl)
				if fresh {
					progress(cl.Label())
				}
				futs[i][c] = f
			}
		}
		out := make([][]*core.Result, len(list))
		for i := range futs {
			out[i] = make([]*core.Result, cols)
			for c, f := range futs[i] {
				res, err := f.Wait()
				if err != nil {
					fatal(err)
				}
				out[i][c] = res
			}
		}
		return out
	}
	mpc := func(r *core.Result) string { return stats.FmtF(float64(r.ExecTime)/1e6, 1) }

	switch *sweepName {
	case "minfree":
		points := []int{2, 4, 8, 12, 16}
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			t := &stats.Table{
				Title:   fmt.Sprintf("Min-free-frames sweep, %s machine, %s prefetching (exec Mpcycles)", kind, mode),
				Headers: append([]string{"Application"}, intHeaders(points)...),
			}
			res := grid(len(points), func(app string, c int) core.Cell {
				cfg := base
				cfg.MinFreeFrames = points[c]
				return core.Cell{App: app, Kind: kind, Mode: mode, Cfg: cfg}
			})
			for i, app := range list {
				row := []string{app}
				for c := range points {
					row = append(row, mpc(res[i][c]))
				}
				t.AddRow(row...)
			}
			fmt.Println(t)
		}

	case "diskcache":
		// The paper: "a standard multiprocessor often requires a huge
		// amount of disk controller cache capacity to approach the
		// performance of our system." Sweep the standard machine's cache
		// and print the NWCache (16KB cache) reference in the last column.
		sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
		t := &stats.Table{
			Title: fmt.Sprintf("Disk-cache sweep, standard machine, %s prefetching (exec Mpcycles)", mode),
			Headers: append(append([]string{"Application"}, byteHeaders(sizes)...),
				"NWCache@16KB"),
		}
		res := grid(len(sizes)+1, func(app string, c int) core.Cell {
			if c == len(sizes) {
				return core.Cell{App: app, Kind: core.NWCache, Mode: mode,
					Cfg: core.ApplyPaperMinFree(base, core.NWCache, mode)}
			}
			cfg := core.ApplyPaperMinFree(base, core.Standard, mode)
			cfg.DiskCacheBytes = sizes[c]
			return core.Cell{App: app, Kind: core.Standard, Mode: mode, Cfg: cfg}
		})
		for i, app := range list {
			row := []string{app}
			for c := 0; c <= len(sizes); c++ {
				row = append(row, mpc(res[i][c]))
			}
			t.AddRow(row...)
		}
		fmt.Println(t)

	case "ring":
		sizes := []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
		t := &stats.Table{
			Title:   fmt.Sprintf("Per-channel optical storage sweep, NWCache machine, %s prefetching (exec Mpcycles)", mode),
			Headers: append([]string{"Application"}, byteHeaders(sizes)...),
		}
		res := grid(len(sizes), func(app string, c int) core.Cell {
			cfg := core.ApplyPaperMinFree(base, core.NWCache, mode)
			cfg.RingChanBytes = sizes[c]
			return core.Cell{App: app, Kind: core.NWCache, Mode: mode, Cfg: cfg}
		})
		for i, app := range list {
			row := []string{app}
			for c := range sizes {
				row = append(row, mpc(res[i][c]))
			}
			t.AddRow(row...)
		}
		fmt.Println(t)

	case "swapdepth":
		depths := []int{1, 2, 4, 8}
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			t := &stats.Table{
				Title:   fmt.Sprintf("Swap-queue-depth sweep, %s machine, %s prefetching (exec Mpcycles)", kind, mode),
				Headers: append([]string{"Application"}, intHeaders(depths)...),
			}
			res := grid(len(depths), func(app string, c int) core.Cell {
				cfg := core.ApplyPaperMinFree(base, kind, mode)
				cfg.SwapQueueDepth = depths[c]
				return core.Cell{App: app, Kind: kind, Mode: mode, Cfg: cfg}
			})
			for i, app := range list {
				row := []string{app}
				for c := range depths {
					row = append(row, mpc(res[i][c]))
				}
				t.AddRow(row...)
			}
			fmt.Println(t)
		}

	case "wbuf":
		// Figure 1's coalescing write buffer: disabled vs increasing
		// depths.
		depths := []int{0, 2, 8, 32}
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			t := &stats.Table{
				Title:   fmt.Sprintf("Write-buffer sweep, %s machine, %s prefetching (exec Mpcycles)", kind, mode),
				Headers: append([]string{"Application"}, intHeaders(depths)...),
			}
			res := grid(len(depths), func(app string, c int) core.Cell {
				cfg := core.ApplyPaperMinFree(base, kind, mode)
				cfg.WriteBufferDepth = depths[c]
				return core.Cell{App: app, Kind: kind, Mode: mode, Cfg: cfg}
			})
			for i, app := range list {
				row := []string{app}
				for c := range depths {
					row = append(row, mpc(res[i][c]))
				}
				t.AddRow(row...)
			}
			fmt.Println(t)
		}

	case "nodes":
		// Machine-size scaling: nodes (with proportional I/O nodes and
		// channels) at fixed per-node memory. The workloads partition over
		// however many processors exist.
		type shape struct{ nodes, w, h, io int }
		shapes := []shape{{4, 2, 2, 2}, {8, 4, 2, 4}, {16, 4, 4, 4}, {32, 8, 4, 8}}
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			t := &stats.Table{
				Title:   fmt.Sprintf("Machine-size sweep, %s machine, %s prefetching (exec Mpcycles)", kind, mode),
				Headers: []string{"Application", "4", "8", "16", "32"},
			}
			res := grid(len(shapes), func(app string, c int) core.Cell {
				sh := shapes[c]
				cfg := core.ApplyPaperMinFree(base, kind, mode)
				cfg.Nodes = sh.nodes
				cfg.MeshW = sh.w
				cfg.MeshH = sh.h
				cfg.IONodes = sh.io
				cfg.RingChannels = sh.nodes
				return core.Cell{App: app, Kind: kind, Mode: mode, Cfg: cfg}
			})
			for i, app := range list {
				row := []string{app}
				for c := range shapes {
					row = append(row, mpc(res[i][c]))
				}
				t.AddRow(row...)
			}
			fmt.Println(t)
		}

	case "channels":
		// OTDM extension: more WDM channels per node (the paper's §4
		// future-capacity argument). 8 = the paper's design point.
		counts := []int{8, 16, 32, 64}
		t := &stats.Table{
			Title:   fmt.Sprintf("Channel-count sweep (OTDM extension), NWCache machine, %s prefetching (exec Mpcycles)", mode),
			Headers: append([]string{"Application"}, intHeaders(counts)...),
		}
		res := grid(len(counts), func(app string, c int) core.Cell {
			cfg := core.ApplyPaperMinFree(base, core.NWCache, mode)
			cfg.RingChannels = counts[c]
			return core.Cell{App: app, Kind: core.NWCache, Mode: mode, Cfg: cfg}
		})
		for i, app := range list {
			row := []string{app}
			for c := range counts {
				row = append(row, mpc(res[i][c]))
			}
			t.AddRow(row...)
		}
		fmt.Println(t)

	case "baseline":
		// Standard vs Standard+DCD (the §6 related-work design) vs
		// NWCache: where does the optical write cache sit relative to a
		// log-disk write cache?
		variants := []struct {
			kind core.Kind
			dcd  bool
		}{{core.Standard, false}, {core.Standard, true}, {core.NWCache, false}}
		t := &stats.Table{
			Title:   fmt.Sprintf("Write-buffering baselines, %s prefetching (exec Mpcycles)", mode),
			Headers: []string{"Application", "Standard", "Standard+DCD", "NWCache"},
		}
		res := grid(len(variants), func(app string, c int) core.Cell {
			v := variants[c]
			cfg := core.ApplyPaperMinFree(base, v.kind, mode)
			cfg.DCD = v.dcd
			return core.Cell{App: app, Kind: v.kind, Mode: mode, Cfg: cfg}
		})
		for i, app := range list {
			row := []string{app}
			for c := range variants {
				row = append(row, mpc(res[i][c]))
			}
			t.AddRow(row...)
		}
		fmt.Println(t)

	case "armsched":
		// Ablation: FCFS disk mechanism vs demand-reads-before-writebacks
		// priority scheduling. Columns 0/1 are prio=false/true; both the
		// execution time and the average swap-out time are reported.
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			t := &stats.Table{
				Title:   fmt.Sprintf("Arm-scheduling ablation, %s machine, %s prefetching (exec Mpcycles)", kind, mode),
				Headers: []string{"Application", "FCFS", "ReadPriority", "AvgSwap FCFS (Kpc)", "AvgSwap Prio (Kpc)"},
			}
			res := grid(2, func(app string, c int) core.Cell {
				cfg := core.ApplyPaperMinFree(base, kind, mode)
				cfg.DiskReadPriority = c == 1
				return core.Cell{App: app, Kind: kind, Mode: mode, Cfg: cfg}
			})
			for i, app := range list {
				fcfs, prio := res[i][0], res[i][1]
				t.AddRow(app,
					mpc(fcfs), mpc(prio),
					stats.FmtF(fcfs.AvgSwapTime/1e3, 1), stats.FmtF(prio.AvgSwapTime/1e3, 1))
			}
			fmt.Println(t)
		}

	case "prefetch":
		// Extension: the Streamed mode should land between the paper's
		// naive and optimal extremes (§5, Discussion).
		modes := []core.PrefetchMode{core.Naive, core.Streamed, core.Optimal}
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			t := &stats.Table{
				Title:   fmt.Sprintf("Prefetch-mode comparison, %s machine (exec Mpcycles)", kind),
				Headers: []string{"Application", "Naive", "Streamed", "Optimal"},
			}
			res := grid(len(modes), func(app string, c int) core.Cell {
				pm := modes[c]
				return core.Cell{App: app, Kind: kind, Mode: pm,
					Cfg: core.ApplyPaperMinFree(base, kind, pm)}
			})
			for i, app := range list {
				row := []string{app}
				for c := range modes {
					row = append(row, mpc(res[i][c]))
				}
				t.AddRow(row...)
			}
			fmt.Println(t)
		}

	case "drain":
		t := &stats.Table{
			Title:   fmt.Sprintf("Drain-policy ablation, NWCache machine, %s prefetching (exec Mpcycles)", mode),
			Headers: []string{"Application", "MostLoaded", "RoundRobin"},
		}
		res := grid(2, func(app string, c int) core.Cell {
			return core.Cell{App: app, Kind: core.NWCache, Mode: mode, RRDrain: c == 1,
				Cfg: core.ApplyPaperMinFree(base, core.NWCache, mode)}
		})
		for i, app := range list {
			t.AddRow(app, mpc(res[i][0]), mpc(res[i][1]))
		}
		fmt.Println(t)

	default:
		fmt.Fprintf(os.Stderr, "nwsweep: unknown sweep %q\n", *sweepName)
		os.Exit(1)
	}
}

// gridOpts carries the grid mode's flag values.
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

// runGrid is the scale-out sweep mode: run one shard of a grid spec
// with checkpoint/resume (or, with doMerge, stream completed shard
// outputs into the merged artifacts). Returns the process exit code
// (see the package comment's taxonomy).
func runGrid(o gridOpts) int {
	if o.dir == "" {
		fatal(fmt.Errorf("grid mode needs -dir"))
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
		OnPoison: func(c core.Cell, reason string) {
			fmt.Fprintf(os.Stderr, "nwsweep: poisoned %s: %s\n", c.Label(), reason)
		},
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
		r.OnEvent = func(ev obs.Event) {
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
	if !o.quiet {
		r.Progress = func(label string) {
			fmt.Fprintf(os.Stderr, "running %s...\n", label)
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

// parseShard decodes "i/n".
func parseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
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

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func intHeaders(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%d", v)
	}
	return out
}

func byteHeaders(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		switch {
		case v >= 1<<20:
			out[i] = fmt.Sprintf("%dMB", v>>20)
		default:
			out[i] = fmt.Sprintf("%dKB", v>>10)
		}
	}
	return out
}
