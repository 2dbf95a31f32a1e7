// Command nwtrace summarizes a Chrome trace written by nwsim -trace-out
// or nwbench -trace-out. For each simulated run in the file (one trace
// process each) it prints the record counts, the fault and swap-out
// latency distributions, the optical ring's occupancy (peak, mean,
// timeline), the most-faulted pages, and how many events the trace's cap
// dropped. The record names are listed in MODEL.md, "Spans".
//
// Usage:
//
//	nwtrace FILE|-
//
// For example:
//
//	nwsim -app mg -scale 0.1 -mem 81920 -trace-out mg.json && nwtrace mg.json
//	nwbench -table 3 -scale 0.5 -trace-out t3.json && nwtrace - < t3.json
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"nwcache/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwtrace:", err)
		os.Exit(1)
	}
}

// run reads the trace named by args ("-" is stdin) and writes one
// summary per process to out.
func run(args []string, stdin io.Reader, out io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: nwtrace FILE|-")
	}
	r := stdin
	if args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	runs, err := obs.ReadChrome(r)
	if err != nil {
		return err
	}
	for i, nt := range runs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s ==\n%s", nt.Name, analyze(nt.Trace))
	}
	return nil
}
