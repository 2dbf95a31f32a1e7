// Package nwcache is an execution-driven simulator reproducing "NWCache:
// Optimizing Disk Accesses via an Optical Network/Write Cache Hybrid"
// (Carrera & Bianchini, IPPS 1999).
//
// It models an 8-node scalable cache-coherent multiprocessor — wormhole
// mesh, per-node memories and TLBs, parallel file system, disks with
// controller caches — optionally extended with the paper's NWCache: an
// optical WDM ring that both transports swapped-out virtual-memory pages
// to the disks and stores them in flight, acting as a system-wide write
// cache with victim-caching reads.
//
// The package is a thin facade over internal/core:
//
//	cfg := nwcache.DefaultConfig()
//	res, err := nwcache.Run("gauss", nwcache.NWCache, nwcache.Optimal, cfg)
//
// See cmd/nwbench for the paper's full evaluation, cmd/nwsim for single
// runs, cmd/nwsweep for sensitivity studies, and examples/ for usage.
package nwcache

import (
	"nwcache/internal/core"
)

// Re-exported types; see internal/core for documentation.
type (
	// Config carries every simulator parameter (the paper's Table 1).
	Config = core.Config
	// Kind selects the machine architecture.
	Kind = core.Kind
	// PrefetchMode selects the prefetching extreme.
	PrefetchMode = core.PrefetchMode
	// Result aggregates one simulation run's measurements.
	Result = core.Result
	// Program is a parallel application the machine can execute.
	Program = core.Program
	// Ctx is the execution context driving one application thread.
	Ctx = core.Ctx
)

// Machine kinds and prefetch modes. Naive and Optimal are the paper's two
// prefetching extremes; Streamed is this repository's realistic middle
// point (per-requester sequential-stream detection).
const (
	Standard = core.Standard
	NWCache  = core.NWCache
	Naive    = core.Naive
	Optimal  = core.Optimal
	Streamed = core.Streamed
)

// DefaultConfig returns the paper's Table 1 configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Apps lists the built-in Table 2 applications.
func Apps() []string { return core.Apps() }

// Run executes a built-in application on a fresh machine.
func Run(app string, kind Kind, mode PrefetchMode, cfg Config) (*Result, error) {
	return core.Run(app, kind, mode, cfg)
}

// RunProgram executes a custom Program on a fresh machine.
func RunProgram(prog Program, kind Kind, mode PrefetchMode, cfg Config) (*Result, error) {
	return core.RunProgram(prog, kind, mode, cfg)
}

// PaperMinFree returns the paper's per-configuration minimum-free-frames
// choice.
func PaperMinFree(kind Kind, mode PrefetchMode) int { return core.PaperMinFree(kind, mode) }

// ApplyPaperMinFree sets cfg's free-frame floor to the paper's choice.
func ApplyPaperMinFree(cfg Config, kind Kind, mode PrefetchMode) Config {
	return core.ApplyPaperMinFree(cfg, kind, mode)
}
