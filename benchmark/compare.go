package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one side of a comparison: every run of every workload in its
// result files.
type side struct {
	order []string             // workloads in first-seen order
	runs  map[string][]*result // workload -> its runs
}

func readSide(paths []string) (*side, error) {
	s := &side{runs: map[string][]*result{}}
	for _, p := range paths {
		rs, err := readResultSet(p)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  %s: %s, %d CPUs, %d runs\n", p, rs.Host.CPUModel, rs.Host.NProc, len(rs.Workloads))
		for _, r := range rs.Workloads {
			if s.runs[r.Workload] == nil {
				s.order = append(s.order, r.Workload)
			}
			s.runs[r.Workload] = append(s.runs[r.Workload], r)
		}
	}
	return s, nil
}

// compare prints, for each workload and end-to-end metric, each side's
// median and quartiles over its runs (one value per run: that run's
// median), the bound BENCHMARK.json fixes, and a verdict:
//
//   - "unresolved": a side has a single run, or the quartile distance of
//     a side's run values, as a share of their median, exceeds the
//     bound, so the host's drift between runs could hide or fake a
//     change of that size;
//   - "regressed": B's median is worse than A's by more than the bound;
//   - "within bound" otherwise.
//
// Runs of one side should be recorded alternately with the other
// side's. compare then checks that every per-layer work count is
// identical in every run of both sides. ok is false on any regression
// or count mismatch; there is no combined score.
func compare(pathsA, pathsB []string) (ok bool, err error) {
	specPath, err := repoFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	fmt.Println("A:")
	a, err := readSide(pathsA)
	if err != nil {
		return false, err
	}
	fmt.Println("B:")
	b, err := readSide(pathsB)
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Printf("%-15s %-17s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] (spread)", "B median [q1, q3] (spread)", "change", "bound", "verdict")
	for _, name := range a.order {
		ra, rb := a.runs[name], b.runs[name]
		if len(rb) == 0 {
			fmt.Printf("%-15s missing from B\n", name)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := runValues(ra, m.Name), runValues(rb, m.Name)
			change, v := verdict(va, vb, m.Better, m.Bound)
			if v == "regressed" {
				ok = false
			}
			fmt.Printf("%-15s %-17s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", name, m.Name,
				describe(va, m.Unit), describe(vb, m.Unit), 100*change, 100*m.Bound, v)
		}
	}

	var diffs []string
	counts := 0
	for _, name := range a.order {
		runs := append(append([]*result(nil), a.runs[name]...), b.runs[name]...)
		ref := runs[0].PerLayer
		for key, want := range ref {
			if want.Unit != "count" {
				continue
			}
			counts++
			var got []string
			for _, r := range runs[1:] {
				if m, found := r.PerLayer[key]; !found {
					got = append(got, "missing")
				} else if m.Value != want.Value {
					got = append(got, fmt.Sprint(m.Value))
				}
			}
			if len(got) > 0 {
				diffs = append(diffs, fmt.Sprintf("%s %s: first run %g, others %s", name, key, want.Value, strings.Join(got, ", ")))
			}
		}
	}
	sort.Strings(diffs)
	if len(diffs) == 0 {
		fmt.Printf("per-layer counts: all %d identical in every run\n", counts)
	} else {
		ok = false
		fmt.Printf("per-layer counts: %d of %d differ between runs\n", len(diffs), counts)
		for _, d := range diffs {
			fmt.Println("  " + d)
		}
	}
	return ok, nil
}

// verdict judges B's run values of one metric against A's (see
// compare); change is B's median relative to A's.
func verdict(va, vb []float64, better string, bound float64) (change float64, v string) {
	if ma := median(va); ma != 0 {
		change = (median(vb) - ma) / ma
	}
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case len(va) < 2 || len(vb) < 2:
		return change, "unresolved (one run)"
	case max(spread(va), spread(vb)) > bound:
		return change, "unresolved"
	case worse > bound:
		return change, "regressed"
	}
	return change, "within bound"
}

// runValues returns each run's value of an end-to-end metric.
func runValues(runs []*result, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.EndToEnd[name].Value
	}
	return vs
}

// describe formats run values as "median [q1, q3] unit (spread%)".
func describe(vs []float64, unit string) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s (%.0f%%)", median(vs), q1, q3, unit, 100*spread(vs))
}
