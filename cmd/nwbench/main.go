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
// Exit codes: 0 on success, 1 on error, 2 on a bad flag, 128+signal
// when killed by SIGINT/SIGTERM. Every exit path — including signals
// and errors — restores the -watch dashboard's terminal state (cursor
// visibility, ANSI attributes) first. Tables are cheap to re-run;
// checkpointed, resumable execution lives in nwsweep's grid mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"nwcache/cmd/internal/cli"
	"nwcache/internal/core"
	"nwcache/internal/exp"
	"nwcache/internal/exp/pool"
	"nwcache/internal/obs"
	"nwcache/internal/stats"
)

func main() { cli.Main("nwbench", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nwbench", flag.ContinueOnError)
	var o cli.Flags
	o.Register(fs)
	var (
		scale       = fs.Float64("scale", 1.0, "workload scale (1.0 = paper's Table 2 inputs)")
		seed        = fs.Int64("seed", 1, "deterministic simulation seed")
		tableN      = fs.Int("table", 0, "print only table N (2-8)")
		figureN     = fs.Int("figure", 0, "print only figure N (3 or 4)")
		all         = fs.Bool("all", false, "print every table and figure")
		quiet       = fs.Bool("q", false, "suppress progress output")
		format      = fs.String("format", "text", "output format: text or csv")
		report      = fs.Bool("report", false, "emit a markdown paper-vs-measured report")
		jobs        = fs.Int("j", runtime.GOMAXPROCS(0), "max simulations to run concurrently")
		reliability = fs.String("reliability", "", "run the fault-injection reliability matrix for this application instead of the tables")
		faultSeed   = fs.Int64("fault-seed", 1, "seed for the reliability matrix's fault injector")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	s, err := o.Start("nwbench", stdout)
	if err != nil {
		return err
	}
	defer s.Close()

	cfg := core.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	suite := exp.NewSuiteOn(cfg, pool.New(*jobs))
	if !*quiet {
		suite.Progress = func(label string) {
			fmt.Fprintf(os.Stderr, "running %s...\n", label)
		}
	}
	// Cells served from the memo cache never fire the hook, so the
	// session observes exactly the fresh simulations.
	suite.AddObserver(s.Observe)

	if *reliability != "" {
		// Naive demand paging sends every miss to the media, so the
		// escalating fault plans actually exercise the disks and the ring;
		// optimal prefetching would hide most injected faults behind the
		// controller cache.
		t, err := suite.ReliabilityMatrix(*reliability, core.Naive, *faultSeed)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.Out(), t)
	} else if err := runSelections(suite, s.Out(), *report, *all, *tableN, *figureN, *format, *jobs); err != nil {
		return err
	}
	return s.Finish(cfg, obs.Manifest{})
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
		tables := []func() (*stats.Table, error){
			func() (*stats.Table, error) { return suite.Table2(), nil },
			suite.Table3, suite.Table4, suite.Table5, suite.Table6, suite.Table7, suite.Table8,
		}
		if tableN < 2 || tableN > 8 {
			return fmt.Errorf("no table %d (have 2-8)", tableN)
		}
		t, err := tables[tableN-2]()
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
