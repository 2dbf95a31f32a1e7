// Command benchmark measures the NWCache reproduction end to end and
// layer by layer, on four workloads that each stress a different part of
// the system (see README.md).
//
// Usage:
//
//	go run .                                       every workload, 5 rounds, traced, results JSON written
//	go run . -workload swap-gauss -seed 1 -seconds 15 -trace 0
//	go run . -compare A.json[,A2.json] B.json      medians, quartiles and verdicts per metric
//	go run . -write-expected expected.txt          regenerate the reference digests
//
// A single-workload run prints every metric by name with its unit, then,
// as its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (-trace 0) or the per-layer
// metrics of the traced phase (-trace 1).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if arg, ok := os.LookupEnv(setupEnv); ok {
		if err := setupChild(arg); err != nil {
			fatal(err)
		}
		return
	}
	var (
		name     = flag.String("workload", "", "run only this workload, in this process (default: every workload, each in its own process, traced)")
		seed     = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of each workload's timed phase, in seconds")
		trace    = flag.Int("trace", 0, "1: add the traced phase and report per-layer metrics")
		out      = flag.String("out", "", "write the full results JSON to this file (default for all workloads: .bench_build/results.json)")
		cmp      = flag.Bool("compare", false, "compare two sides given as arguments, each a results file or a comma-separated list of them")
		writeExp = flag.String("write-expected", "", "regenerate the reference digest table into this file")
	)
	flag.Parse()
	var err error
	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two sides: A.json[,A2.json...] B.json[,B2.json...]"))
		}
		var ok bool
		if ok, err = compare(strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")); err == nil && !ok {
			os.Exit(1)
		}
	case *writeExp != "":
		err = writeExpected(*writeExp)
	case *name != "":
		err = runOne(*name, options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 21}, *out)
	default:
		if *out == "" {
			*out = filepath.Join(".bench_build", "results.json")
		}
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultSet is the results JSON: the host it was measured on and one
// result per run of a workload.
type resultSet struct {
	Host      host      `json:"host"`
	Seconds   float64   `json:"seconds"`
	Workloads []*result `json:"workloads"`
}

// runOne measures one workload in this process and prints its metrics.
func runOne(name string, o options, outPath string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	printResult(res)
	if outPath != "" {
		if err := writeJSON(outPath, &resultSet{Host: fingerprint(), Seconds: o.seconds, Workloads: []*result{res}}); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	reported := res.EndToEnd
	if o.trace {
		reported = res.PerLayer
	}
	for name, m := range reported {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// rounds is how many runs of each workload one results file holds.
const rounds = 5

// runAll measures every workload rounds times, round-robin, each run
// traced in a process of its own (a fresh heap and its own peak RSS),
// and writes the combined results. The rounds give -compare the spread
// between runs; round-robin spreads the host's drift over every
// workload.
func runAll(seed int64, seconds float64, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	set := &resultSet{Host: fingerprint(), Seconds: seconds}
	for round := 1; round <= rounds; round++ {
		for _, w := range workloads {
			fmt.Printf("-- round %d of %d\n", round, rounds)
			part := filepath.Join(tmp, w.name+".json")
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "1", "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rs, err := readResultSet(part)
			if err != nil {
				return err
			}
			set.Workloads = append(set.Workloads, rs.Workloads...)
		}
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := writeJSON(outPath, set); err != nil {
		return err
	}
	fmt.Println("results:", outPath)
	return nil
}

// printResult prints every metric by name with its unit; timings also
// carry their sample count, quartiles and tail percentile.
func printResult(res *result) {
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("== %s seed=%d: %d reps attempted, %d failed, fail_frac=%g\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, frac)
	printTiming := func(name string, m metric) {
		line := fmt.Sprintf("  %-28s %-14.6g %-6s", name, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			q1, q3 := quartiles(m.Samples)
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", len(m.Samples), q1, q3)
			if t := tail(m.Samples); t != "" {
				line += " " + t
			}
		}
		fmt.Println(line)
	}
	for _, d := range endToEnd {
		printTiming(d.name, res.EndToEnd[d.name])
	}
	fmt.Println("  host clock (drifts with the host, not gated):")
	for _, name := range []string{"rep_s", "ref_s", "setup_wall_s"} {
		printTiming(name, res.HostClock[name])
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Println("  per layer (traced phase):")
	for _, d := range perLayer() {
		m := res.PerLayer[d.name]
		fmt.Printf("  %-28s %-14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(blob, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// repoFile finds rel in the working directory or one of its parents,
// so the harness runs from the repository root or from benchmark/.
func repoFile(rel string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found above the working directory", rel)
		}
		dir = parent
	}
}

// host fingerprints the machine a result set was measured on.
type host struct {
	GoVersion  string `json:"go_version"`
	GoHostArch string `json:"gohostarch"` // the harness is built on the host it runs on
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	TmpDirFS   string `json:"tmpdir_fs"`
}

func fingerprint() host {
	return host{
		GoVersion:  runtime.Version(),
		GoHostArch: runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		TmpDirFS:   fsType(os.TempDir()),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType returns the type of the filesystem holding dir, from the
// longest matching mount point in /proc/self/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	blob, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	var mounts []string
	types := map[string]string{}
	for _, line := range strings.Split(string(blob), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 {
			mounts = append(mounts, f[1])
			types[f[1]] = f[2]
		}
	}
	sort.Slice(mounts, func(i, j int) bool { return len(mounts[i]) > len(mounts[j]) })
	for _, m := range mounts {
		if abs == m || strings.HasPrefix(abs, strings.TrimSuffix(m, "/")+"/") {
			return types[m]
		}
	}
	return "unknown"
}
