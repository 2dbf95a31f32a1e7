// Command nwops records and replays application operation traces
// (trace-driven simulation):
//
//	nwops -record -app gauss -out gauss.ops         # capture the op stream
//	nwops -info gauss.ops                           # inspect a trace
//	nwops -replay gauss.ops -machine nwcache        # re-simulate from it
//
// A recorded trace is substrate-independent: it can be replayed on either
// machine kind and any prefetching mode, with any compatible
// configuration (same processor count).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nwcache/internal/core"
	"nwcache/internal/workload"
)

func main() {
	var (
		record   = flag.Bool("record", false, "record an application's op stream")
		app      = flag.String("app", "gauss", "application to record: "+strings.Join(core.Apps(), ", "))
		out      = flag.String("out", "", "output file for -record")
		info     = flag.String("info", "", "print a trace file's summary")
		replay   = flag.String("replay", "", "replay a trace file")
		machineF = flag.String("machine", "nwcache", "machine kind for -replay: standard or nwcache")
		prefetch = flag.String("prefetch", "optimal", "prefetch mode for -replay")
		scale    = flag.Float64("scale", 1.0, "workload scale for -record")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed

	switch {
	case *record:
		if *out == "" {
			fatal(fmt.Errorf("-record needs -out FILE"))
		}
		prog, err := core.NewProgram(*app, cfg)
		if err != nil {
			fatal(err)
		}
		tr, err := workload.Record(prog, cfg)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tr.Encode(f); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s: %d ops across %d procs -> %s\n",
			*app, tr.TotalOps(), len(tr.Ops), *out)

	case *info != "":
		tr := loadTrace(*info)
		fmt.Printf("trace:  %s\n", tr.TraceName)
		fmt.Printf("pages:  %d (%.2f MB)\n", tr.Pages, float64(tr.Pages)*4096/(1<<20))
		fmt.Printf("procs:  %d\n", len(tr.Ops))
		fmt.Printf("ops:    %d total\n", tr.TotalOps())
		for p, ops := range tr.Ops {
			fmt.Printf("  proc %d: %d ops\n", p, len(ops))
		}

	case *replay != "":
		tr := loadTrace(*replay)
		if len(tr.Ops) != cfg.Nodes {
			fatal(fmt.Errorf("trace has %d op streams, the machine has %d processors", len(tr.Ops), cfg.Nodes))
		}
		kind, err := core.ParseKind(*machineF)
		if err != nil {
			fatal(err)
		}
		mode, err := core.ParseMode(*prefetch)
		if err != nil {
			fatal(err)
		}
		runCfg := core.ApplyPaperMinFree(cfg, kind, mode)
		res, err := core.RunProgram(tr, kind, mode, runCfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %s on %s/%s: exec=%d pcycles, faults=%d, swap-outs=%d\n",
			tr.TraceName, kind, mode, res.ExecTime, res.Faults, res.SwapOuts)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func loadTrace(path string) *workload.OpTrace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := workload.ReadOpTrace(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwops:", err)
	os.Exit(1)
}
