// Command nwsim runs one application on one machine configuration and
// prints the measured statistics. Every Table 1 parameter is exposed as a
// flag, so single points of the design space can be probed directly.
//
// Usage:
//
//	nwsim -app lu -machine nwcache -prefetch optimal [-scale 0.5] ...
//
// Exit codes: 0 on success, 1 on error, 2 on a bad flag, 128+signal
// when killed by SIGINT/SIGTERM. On any exit path — including signals
// and errors — the -watch dashboard's terminal state (cursor
// visibility, ANSI attributes) is restored first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"nwcache/cmd/internal/cli"
	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/fault"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/param"
)

func main() { cli.Main("nwsim", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nwsim", flag.ContinueOnError)
	cfg := core.DefaultConfig()
	var o cli.Flags
	o.Register(fs)
	var (
		app       = fs.String("app", "lu", "application: "+strings.Join(core.Apps(), ", "))
		machineF  = fs.String("machine", "nwcache", "machine kind: standard or nwcache")
		prefetch  = fs.String("prefetch", "optimal", "prefetch mode: naive, optimal, or streamed")
		minFree   = fs.Int("minfree", 0, "min free frames (0 = paper's per-configuration choice)")
		cfgFile   = fs.String("config", "", "JSON config file (flags override its values)")
		dumpCfg   = fs.Bool("dump-config", false, "print the effective config as JSON and exit")
		util      = fs.Bool("util", false, "also print per-resource utilization")
		seeds     = fs.Int("seeds", 1, "run N seeds and report mean/min/max execution time")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent seed runs (with -seeds)")
		faultPlan = fs.String("fault-plan", "", "fault-plan spec file (see internal/fault); empty = no fault injection")
		faultSeed = fs.Int64("fault-seed", 1, "seed for the fault injector's dedicated PRNG stream")
		recovery  = fs.String("recovery", "", "recovery policy: aggressive (paper default) or conservative")
	)
	fs.BoolVar(&o.Metrics, "metrics", false, "print the metric snapshot after the run")
	fs.Float64Var(&cfg.Scale, "scale", 1.0, "workload scale (1.0 = paper inputs)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.MemPerNode, "mem", cfg.MemPerNode, "memory per node (bytes)")
	fs.IntVar(&cfg.DiskCacheBytes, "diskcache", cfg.DiskCacheBytes, "disk controller cache (bytes)")
	fs.IntVar(&cfg.RingChanBytes, "ringchan", cfg.RingChanBytes, "optical storage per channel (bytes)")
	fs.Int64Var(&cfg.RingRoundTrip, "ringrtt", cfg.RingRoundTrip, "ring round-trip latency (pcycles)")
	fs.IntVar(&cfg.SwapQueueDepth, "swapdepth", cfg.SwapQueueDepth, "outstanding swap-outs per node")
	fs.BoolVar(&cfg.DCD, "dcd", cfg.DCD, "attach a Disk Caching Disk log to each disk (§6 baseline)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *cfgFile != "" {
		loaded, err := param.LoadFile(*cfgFile)
		if err != nil {
			return err
		}
		// The config flags point into cfg, so parsing the command line
		// again over the file's values lets exactly the given flags win.
		cfg = loaded
		if err := cli.Parse(fs, args); err != nil {
			return err
		}
	}
	if *dumpCfg {
		return cfg.WriteJSON(stdout)
	}

	kind, err := core.ParseKind(*machineF)
	if err != nil {
		return err
	}
	mode, err := core.ParseMode(*prefetch)
	if err != nil {
		return err
	}
	cfg.MinFreeFrames = *minFree
	if *minFree == 0 {
		cfg = core.ApplyPaperMinFree(cfg, kind, mode)
	}
	c := core.Cell{App: *app, Kind: kind, Mode: mode, Cfg: cfg, FaultSeed: *faultSeed, Recovery: *recovery}
	if *faultPlan != "" {
		// Read and check the plan before spending any simulation time.
		raw, err := os.ReadFile(*faultPlan)
		if err != nil {
			return err
		}
		if _, err := fault.Parse(string(raw)); err != nil {
			return fmt.Errorf("%s: %v", *faultPlan, err)
		}
		c.FaultPlan = string(raw)
		if c.Recovery == "" {
			// A named plan attaches an injector even when the file is
			// empty; naming the default policy makes the cell say so.
			c.Recovery = "aggressive"
		}
	}

	if *seeds > 1 {
		if o.TraceOut != "" || o.ManifestOut != "" || o.Metrics {
			return errors.New("-trace-out/-manifest-out/-metrics require a single run (-seeds 1)")
		}
		if o.SeriesOut != "" || o.Watch || o.HTTP != "" {
			return errors.New("-series-out/-watch/-http require a single run (-seeds 1)")
		}
		if c.FaultPlan != "" || c.Recovery != "" {
			return errors.New("-fault-plan/-recovery require a single run (-seeds 1)")
		}
	}
	s, err := o.Start("nwsim", stdout)
	if err != nil {
		return err
	}
	defer s.Close()

	if *seeds > 1 {
		agg, err := pool.RunSeeds(pool.New(*jobs), *app, kind, mode, cfg, *seeds)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "app=%s machine=%s prefetch=%s scale=%.2f seeds=%d\n\n",
			*app, kind, mode, cfg.Scale, *seeds)
		fmt.Fprintf(stdout, "execution time:  mean %.1f Mpcycles (min %.1f, max %.1f, spread %.1f%%)\n",
			agg.MeanExec/1e6, float64(agg.MinExec)/1e6, float64(agg.MaxExec)/1e6,
			agg.Spread()*100)
		fmt.Fprintf(stdout, "ring hit rate:   mean %.1f%%\n", agg.MeanRingHitRate*100)
		fmt.Fprintf(stdout, "avg swap time:   mean %.1f Kpcycles\n", agg.MeanSwapTime/1e3)
		return nil
	}

	var m *machine.Machine
	c.Obs = func(c core.Cell, mm *machine.Machine) { m = mm; s.Observe(c, mm) }
	res, err := c.Run()
	if err != nil {
		return err
	}
	s.StopWatch()
	out := s.Out()
	fmt.Fprintf(out, "scale=%.2f minfree=%d\n", cfg.Scale, cfg.MinFreeFrames)
	fmt.Fprintln(out, res)
	if *util {
		fmt.Fprintln(out, m.UtilizationTable())
	}
	if o.Metrics {
		printSnapshot(stdout, s.Snapshot())
	}
	return s.Finish(cfg, obs.Manifest{App: *app, Machine: kind.String(), Prefetch: mode.String(), SimPcycles: res.ExecTime})
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
