package main

import (
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strings"

	"nwcache/internal/core"
	"nwcache/internal/sweep"
)

// expected.txt holds the reference result digest of every evaluation
// cell at each workload scale. A cell whose result is identical at
// seeds 1 and 2 (every application without a randomized pattern) is
// listed with seed "*" and checked at every seed; the others are
// checked at seed 1 only.
//
//go:embed expected.txt
var expectedText string

var expected = parseExpected(expectedText)

func parseExpected(text string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && !strings.HasPrefix(f[0], "#") {
			m[strings.Join(f[:5], " ")] = f[5]
		}
	}
	return m
}

func cellID(c core.Cell, seed string) string {
	return fmt.Sprintf("%g %s %s %s %s", c.Cfg.Scale, c.App, c.Kind, c.Mode, seed)
}

// expectedDigest returns the reference digest of c's result, if the
// table pins it.
func expectedDigest(c core.Cell) (string, bool) {
	if d, ok := expected[cellID(c, "*")]; ok {
		return d, true
	}
	d, ok := expected[cellID(c, fmt.Sprint(c.Cfg.Seed))]
	return d, ok
}

// writeExpected regenerates the reference table by simulating every
// cell at seeds 1 and 2 at each workload scale.
func writeExpected(path string) error {
	scales := map[float64]bool{}
	for _, w := range workloads {
		scales[w.scale] = true
	}
	var lines []string
	for scale := range scales {
		spec, err := sweep.ParseSpec(fmt.Sprintf("seeds 1..2\nscale %g\n", scale))
		if err != nil {
			return err
		}
		digests := map[string]string{}
		err = spec.EachCell(func(_ int, c core.Cell) error {
			progs, machines, err := buildCells([]core.Cell{c})
			if err != nil {
				return err
			}
			res, err := machines[0].Run(progs[0])
			if err != nil {
				return err
			}
			digests[cellID(c, fmt.Sprint(c.Cfg.Seed))] = sweep.ResultDigest(res)
			return nil
		})
		if err != nil {
			return err
		}
		err = spec.EachCell(func(_ int, c core.Cell) error {
			if c.Cfg.Seed != 1 {
				return nil
			}
			c2 := c
			c2.Cfg.Seed = 2
			d1, d2 := digests[cellID(c, "1")], digests[cellID(c2, "2")]
			if d1 == d2 {
				lines = append(lines, cellID(c, "*")+" "+d1)
			} else {
				lines = append(lines, cellID(c, "1")+" "+d1)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	sort.Strings(lines)
	head := "# scale app kind mode seed digest — regenerate with: go run . -write-expected expected.txt\n"
	return os.WriteFile(path, []byte(head+strings.Join(lines, "\n")+"\n"), 0o644)
}
