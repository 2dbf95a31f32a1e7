package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as a set-up child, as the
// benchmark binary does (see measureSetup).
func TestMain(m *testing.M) {
	if arg, ok := os.LookupEnv(setupEnv); ok {
		if err := setupChild(arg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smoke runs w in-process on shrunk inputs: two timed reps, then the
// traced phase, whose two reps must repeat every work count exactly.
func smoke(t *testing.T, w *workload, golden string) *result {
	t.Helper()
	res, err := runWorkload(w, options{seed: 1, reps: 2, trace: true, scale: 0.05, setups: 2, golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload emits exactly the metrics BENCHMARK.json names, with
// their units, and passes every correctness check.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w, "")
			if res.Failed != 0 {
				t.Fatalf("fail_frac %d/%d: %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, set := range []struct {
				want []metricSpec
				got  map[string]metric
			}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
				if len(set.got) != len(set.want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(set.got), len(set.want))
				}
				for _, m := range set.want {
					if !metricName.MatchString(m.Name) {
						t.Errorf("metric name %q", m.Name)
					}
					got, ok := set.got[m.Name]
					if !ok {
						t.Errorf("%s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s emitted in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}

// A verdict rests on the spread between runs: drift within the bound
// passes in both directions, a side whose runs spread wider than the
// bound is unresolved rather than regressed, a single run resolves
// nothing, and only a shift beyond the bound between steady sides is a
// regression.
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.02, 0.98, 1.01, 0.99}
	drifted := []float64{1.20, 1.22, 1.18, 1.21, 1.19}
	slow := []float64{1.50, 1.52, 1.48, 1.51, 1.49}
	noisy := []float64{1.0, 1.5, 0.8, 1.9, 1.2}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"drift up", steady, drifted, "lower", "within bound"},
		{"drift down", drifted, steady, "lower", "within bound"},
		{"slower", steady, slow, "lower", "regressed"},
		{"faster", slow, steady, "lower", "within bound"},
		{"lower is worse", slow, steady, "higher", "regressed"},
		{"noisy side", steady, noisy, "lower", "unresolved"},
		{"one run", steady, slow[:1], "lower", "unresolved (one run)"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.25); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// The reference kernel must leave the heap alone, so that it neither
// pays for a collection nor leaves one behind for the next rep.
// (reference.time adds a forced GC, which itself allocates a little.)
func TestReferenceAllocatesNothing(t *testing.T) {
	ref := newReference(1)
	defer ref.close()
	if n := testing.AllocsPerRun(3, ref.lanes[0].run); n != 0 {
		t.Fatalf("reference kernel: %v allocations per run", n)
	}
}

// A wrong expected digest for the paper tables must fail every rep:
// the correctness check is live, not vacuous.
func TestWrongGoldenFails(t *testing.T) {
	w, err := findWorkload("paper-eval")
	if err != nil {
		t.Fatal(err)
	}
	res := smoke(t, w, "sha256:0000")
	if res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("fail_frac %d/%d with a wrong golden digest, want every rep failed", res.Failed, res.Attempted)
	}
}
