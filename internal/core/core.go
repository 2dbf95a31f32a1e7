// Package core is the public facade of the NWCache reproduction: it ties
// configuration (Table 1), the application workload (Table 2), and the two
// machine architectures together behind a small API.
//
// Typical use:
//
//	cfg := core.DefaultConfig()
//	res, err := core.Run("lu", core.NWCache, core.Optimal, cfg)
//	fmt.Println(res.ExecTime, res.AvgSwapTime)
//
// Run builds a fresh machine per call, executes the named application to
// completion under deterministic discrete-event simulation, and returns
// the measured statistics (execution-time breakdown, swap-out times, write
// combining, ring hit rates, contention figures).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nwcache/internal/disk"
	"nwcache/internal/fault"
	"nwcache/internal/machine"
	"nwcache/internal/param"
	"nwcache/internal/sim"
	"nwcache/internal/workload"
)

// Kind selects the machine architecture.
type Kind = machine.Kind

// Machine kinds.
const (
	Standard = machine.Standard
	NWCache  = machine.NWCache
)

// PrefetchMode selects the paper's prefetching extreme.
type PrefetchMode = disk.PrefetchMode

// Prefetch modes. Naive and Optimal are the paper's two extremes;
// Streamed is this repository's realistic middle point (per-requester
// sequential-stream detection with bounded read-ahead).
const (
	Naive    = disk.Naive
	Optimal  = disk.Optimal
	Streamed = disk.Streamed
)

// ParseKind decodes a machine-kind name ("standard" or "nwcache") —
// the inverse of Kind.String, for CLI flags and sweep grid specs.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "standard":
		return Standard, nil
	case "nwcache":
		return NWCache, nil
	}
	return 0, fmt.Errorf("core: unknown machine kind %q (want standard or nwcache)", name)
}

// ParseMode decodes a prefetch-mode name ("naive", "optimal", or
// "streamed") — the inverse of PrefetchMode.String.
func ParseMode(name string) (PrefetchMode, error) {
	switch name {
	case "naive":
		return Naive, nil
	case "optimal":
		return Optimal, nil
	case "streamed":
		return Streamed, nil
	}
	return 0, fmt.Errorf("core: unknown prefetch mode %q (want naive, optimal, or streamed)", name)
}

// Config re-exports the simulation parameters (Table 1).
type Config = param.Config

// Result re-exports the per-run measurements.
type Result = machine.Result

// Program re-exports the application interface so custom out-of-core
// programs can be simulated alongside the built-in suite.
type Program = machine.Program

// Ctx re-exports the execution context custom programs are driven by.
type Ctx = machine.Ctx

// PageID re-exports the virtual page number type.
type PageID = machine.PageID

// DefaultConfig returns the paper's Table 1 parameters.
func DefaultConfig() Config { return param.Default() }

// Apps returns the names of the built-in Table 2 applications.
func Apps() []string { return workload.Names() }

// NewProgram instantiates a built-in application by name at the
// configuration's scale and seed.
func NewProgram(name string, cfg Config) (Program, error) {
	prog, ok := workload.Registry(cfg.Scale, cfg.Seed)[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown application %q (have %v)", name, Apps())
	}
	return prog, nil
}

// PaperMinFree returns the minimum-free-frames setting the paper selected
// for each machine/prefetch combination (§5): 12 for the standard machine
// under optimal prefetching, 4 under naive, and 2 for the NWCache machine
// under either. The Streamed extension (between the extremes) uses the
// naive setting on the standard machine.
func PaperMinFree(kind Kind, mode PrefetchMode) int {
	if kind == NWCache {
		return 2
	}
	if mode == Optimal {
		return 12
	}
	return 4
}

// ApplyPaperMinFree sets cfg's free-frame floor to the paper's choice for
// the given machine and prefetch mode.
func ApplyPaperMinFree(cfg Config, kind Kind, mode PrefetchMode) Config {
	cfg.MinFreeFrames = PaperMinFree(kind, mode)
	return cfg
}

// Run executes a built-in application on a fresh machine and returns its
// measurements.
func Run(app string, kind Kind, mode PrefetchMode, cfg Config) (*Result, error) {
	prog, err := NewProgram(app, cfg)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, kind, mode, cfg)
}

// RunProgram executes an arbitrary Program on a fresh machine.
func RunProgram(prog Program, kind Kind, mode PrefetchMode, cfg Config) (*Result, error) {
	m, err := machine.New(cfg, kind, mode)
	if err != nil {
		return nil, err
	}
	return m.Run(prog)
}

// NewMachine exposes machine construction for callers that need access to
// the substrate state after a run (e.g. disk or ring statistics).
func NewMachine(cfg Config, kind Kind, mode PrefetchMode) (*machine.Machine, error) {
	return machine.New(cfg, kind, mode)
}

// Cell identifies one simulation of the evaluation space completely: a
// built-in application, a machine kind, a prefetch mode, and the full
// configuration (ablation switches such as DrainRoundRobin and
// DiskReadPriority are configuration fields), plus an optional fault
// plan. Cells are the unit of scheduling and memoization for the
// experiment harness (internal/exp and internal/exp/pool): two cells with
// equal Keys produce bit-identical Results, so one simulation can serve
// every table, figure, and sweep that asks for it.
type Cell struct {
	App  string
	Kind Kind
	Mode PrefetchMode
	Cfg  Config

	// Fault injection (all zero = perfect hardware, the default).
	// FaultPlan is a fault-plan spec in the internal/fault syntax,
	// FaultSeed seeds the injector's dedicated PRNG stream, and Recovery
	// names the recovery policy ("", "aggressive", or "conservative").
	FaultPlan string
	FaultSeed int64
	Recovery  string

	// Obs, when non-nil, is invoked with the freshly built machine before
	// the run starts — the hook the observability layer uses to attach a
	// metrics registry and span trace (machine.Observe). It is excluded
	// from Key on purpose: observation never changes a result, so a
	// memoized Result may be returned without the hook firing (pool cache
	// hits run no machine).
	Obs func(Cell, *machine.Machine) `json:"-"`

	// Probe, when non-nil, is the supervision progress probe attached to
	// the machine's engine before the run (sim.Engine.AttachProgress):
	// every Probe.Every dispatched events the engine publishes its clock
	// through it and honors a watchdog abort. Excluded from Key on purpose:
	// supervision never changes a result — an aborted cell produces an
	// error, not a Result, so nothing wrong is ever memoized.
	Probe *sim.Progress `json:"-"`
}

// Run executes the cell on a fresh machine.
func (c Cell) Run() (*Result, error) {
	prog, err := NewProgram(c.App, c.Cfg)
	if err != nil {
		return nil, err
	}
	return c.run(prog)
}

// run executes prog on a fresh machine set up as the cell describes.
func (c Cell) run(prog Program) (*Result, error) {
	m, err := machine.New(c.Cfg, c.Kind, c.Mode)
	if err != nil {
		return nil, err
	}
	if c.faulted() {
		plan, err := fault.Parse(c.FaultPlan)
		if err != nil {
			return nil, err
		}
		policy, err := fault.ParsePolicy(c.Recovery)
		if err != nil {
			return nil, err
		}
		m.AttachFaults(fault.NewInjector(plan, c.FaultSeed, policy))
	}
	if c.Probe != nil {
		m.E.AttachProgress(c.Probe)
	}
	if c.Obs != nil {
		c.Obs(c, m)
	}
	return m.Run(prog)
}

// faulted reports whether the cell requests fault injection (a bare
// Recovery setting still attaches an injector: the conservative policy
// changes swap-out semantics even with an empty plan).
func (c Cell) faulted() bool {
	return c.FaultPlan != "" || c.Recovery != ""
}

// Key returns a canonical hash of everything that can influence the
// cell's result. Config marshals with a fixed field order, so equal
// configurations always hash equally.
func (c Cell) Key() string {
	blob, err := json.Marshal(c.Cfg)
	if err != nil {
		// Config is a plain struct of scalars; this cannot happen.
		panic(fmt.Sprintf("core: hashing config: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|", c.App, c.Kind, c.Mode)
	if c.faulted() {
		// Gated so fault-free cells keep their historical keys.
		fmt.Fprintf(h, "fault|%d|%s|%s|", c.FaultSeed, c.Recovery, c.FaultPlan)
	}
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// Label renders the cell for progress reporting.
func (c Cell) Label() string {
	l := fmt.Sprintf("%s / %s / %s", c.App, c.Kind, c.Mode)
	if c.faulted() {
		policy, _ := fault.ParsePolicy(c.Recovery)
		l += fmt.Sprintf(" / faults(%s)", policy)
	}
	return l
}

// SeedAggregate summarizes runs of the same configuration across seeds.
// Only the randomized applications (em3d, radix) and randomized custom
// programs vary across seeds; the rest are seed-invariant.
type SeedAggregate struct {
	Runs            int
	MeanExec        float64
	MinExec         int64
	MaxExec         int64
	MeanRingHitRate float64
	MeanSwapTime    float64
}

// Spread returns (max-min)/mean of the execution times.
func (a *SeedAggregate) Spread() float64 {
	if a.MeanExec == 0 {
		return 0
	}
	return float64(a.MaxExec-a.MinExec) / a.MeanExec
}
