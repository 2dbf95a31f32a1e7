// Package param holds the simulation parameters of the paper's Table 1 and
// the unit conversions between wall-clock quantities and processor cycles.
//
// The simulated processor runs at 200 MHz: 1 pcycle = 5 ns, so
// 1 µs = 200 pcycles and 1 ms = 200,000 pcycles. Transfer times for B
// bytes at R MB/s are B·200/R pcycles.
package param

import (
	"fmt"

	"nwcache/internal/dense"
)

// Clock conversions.
const (
	PcyclesPerUsec = 200
	PcyclesPerMsec = 200_000
)

// TransferPcycles returns the pcycles needed to move `bytes` at `mbPerSec`
// megabytes per second (decimal MB), rounded up.
func TransferPcycles(bytes int64, mbPerSec float64) int64 {
	if bytes <= 0 {
		return 0
	}
	pc := float64(bytes) * 200.0 / mbPerSec
	ipc := int64(pc)
	if float64(ipc) < pc {
		ipc++
	}
	return ipc
}

// Config carries every simulator parameter. Zero value is not usable; start
// from Default() and override.
type Config struct {
	// Machine shape.
	Nodes   int // total nodes (Table 1: 8)
	IONodes int // I/O-enabled nodes (Table 1: 4)
	MeshW   int // mesh width  (8 nodes -> 4x2)
	MeshH   int // mesh height

	// Memory system.
	PageSize      int   // bytes (4 KB)
	MemPerNode    int   // bytes of local memory per node (256 KB)
	MinFreeFrames int   // OS free-frame floor per node
	TLBEntries    int   // TLB capacity in pages
	TLBMissLat    int64 // pcycles (100)
	TLBShootLat   int64 // pcycles (500)
	InterruptLat  int64 // pcycles (400)
	L2SubBlocks   int   // node cache filter capacity in sub-page blocks

	// Bandwidths, MB/s.
	MemBusMBs float64 // 800
	IOBusMBs  float64 // 300
	NetMBs    float64 // 200 per link

	// Network.
	HopLatency int64 // per-hop header latency, pcycles
	CtrlMsgLen int   // bytes of a control message (request/ACK/NACK/OK)

	// Optical ring.
	RingChannels  int     // 8 (one writable channel per node)
	RingRoundTrip int64   // pcycles (52 µs = 10400)
	RingMBs       float64 // 1250 (1.25 GB/s)
	RingChanBytes int     // storage per channel (64 KB)
	// DrainRoundRobin makes each NWCache interface drain its channels
	// round-robin instead of most-loaded-first (the paper's choice). Off
	// by default; exposed for the drain-policy ablation. Inert on the
	// standard machine.
	DrainRoundRobin bool

	// Disk.
	DiskCacheBytes int     // controller cache (16 KB = 4 pages)
	MinSeek        int64   // pcycles (2 ms)
	MaxSeek        int64   // pcycles (22 ms)
	RotLatency     int64   // pcycles (4 ms)
	DiskMBs        float64 // 20
	DiskBlocks     int64   // addressable page-sized blocks per disk
	CtrlOverhead   int64   // controller per-request firmware overhead, pcycles
	// DiskReadPriority makes the disk mechanism serve demand reads ahead
	// of background write-backs (priority scheduling) instead of pure
	// FCFS. Off by default (the paper's base system is FCFS); exposed for
	// the arm-scheduling ablation.
	DiskReadPriority bool
	// StreamDepth is the read-ahead window of the Streamed prefetch mode
	// (pages prefetched beyond a detected sequential stream's head).
	StreamDepth int
	// DCD enables the Disk Caching Disk baseline (§6 related work): a log
	// disk between the controller cache and the data disk that absorbs
	// write-backs with cheap sequential log writes.
	DCD bool
	// DCDLogBlocks is the log disk capacity in page-sized blocks.
	DCDLogBlocks int
	// SyscallOverhead is the fixed cost of an explicit I/O system call
	// (used by the explicit-I/O programming model of the paper's intro).
	SyscallOverhead int64
	// WriteBufferDepth enables the coalescing write buffer of the paper's
	// Figure 1 node diagram ("WB"): write misses to resident pages are
	// queued (and coalesced) instead of stalling the processor, drained in
	// the background, and fenced at release operations (barriers, lock
	// releases) per Release Consistency. 0 disables it (write-miss latency
	// is charged synchronously).
	WriteBufferDepth int
	WBDwell          int64 // write-back dwell after idle, pcycles: lets a
	// burst of consecutive swap-outs accumulate in the cache so they can
	// be combined into one media access

	// Operating system.
	SwapQueueDepth int // max concurrent outstanding swap-outs per node

	// Fault-injection firmware defaults: how often the disk controller
	// retries a transiently failing media access before giving up, and the
	// initial retry backoff in pcycles (doubled per attempt). Used when a
	// fault-plan directive omits retries=/backoff=; inert without a plan.
	FaultRetries int
	FaultBackoff int64

	// File system.
	StripeGroup int // pages per striping group (32)

	// Workload scale multiplier (1.0 = Table 2 inputs). Tests use smaller.
	Scale float64

	// Seed for the deterministic PRNG used by randomized app patterns.
	Seed int64
}

// Default returns the paper's Table 1 configuration.
func Default() Config {
	return Config{
		Nodes:   8,
		IONodes: 4,
		MeshW:   4,
		MeshH:   2,

		PageSize:      4096,
		MemPerNode:    256 * 1024,
		MinFreeFrames: 4,
		TLBEntries:    64,
		TLBMissLat:    100,
		TLBShootLat:   500,
		InterruptLat:  400,
		L2SubBlocks:   128,

		MemBusMBs: 800,
		IOBusMBs:  300,
		NetMBs:    200,

		HopLatency: 20,
		CtrlMsgLen: 64,

		RingChannels:  8,
		RingRoundTrip: 52 * PcyclesPerUsec,
		RingMBs:       1250,
		RingChanBytes: 64 * 1024,

		DiskCacheBytes:  16 * 1024,
		MinSeek:         2 * PcyclesPerMsec,
		MaxSeek:         22 * PcyclesPerMsec,
		RotLatency:      4 * PcyclesPerMsec,
		DiskMBs:         20,
		DiskBlocks:      1 << 20,
		CtrlOverhead:    500,
		WBDwell:         25 * PcyclesPerUsec,
		StreamDepth:     2,
		DCDLogBlocks:    2048,
		SyscallOverhead: 1500,

		SwapQueueDepth: 4,

		FaultRetries: 5,
		FaultBackoff: 2000,

		StripeGroup: 32,

		Scale: 1.0,
		Seed:  1,
	}
}

// FramesPerNode returns the number of page frames in one node's memory.
func (c Config) FramesPerNode() int { return c.MemPerNode / c.PageSize }

// RingSlotsPerChannel returns how many pages fit on one cache channel.
func (c Config) RingSlotsPerChannel() int { return c.RingChanBytes / c.PageSize }

// DiskCacheSlots returns the number of page slots in the controller cache.
func (c Config) DiskCacheSlots() int { return c.DiskCacheBytes / c.PageSize }

// PageMemBusTime returns the pcycles a page occupies a memory bus.
func (c Config) PageMemBusTime() int64 { return TransferPcycles(int64(c.PageSize), c.MemBusMBs) }

// PageIOBusTime returns the pcycles a page occupies an I/O bus.
func (c Config) PageIOBusTime() int64 { return TransferPcycles(int64(c.PageSize), c.IOBusMBs) }

// PageRingTime returns the pcycles to insert or extract a page on the ring.
func (c Config) PageRingTime() int64 { return TransferPcycles(int64(c.PageSize), c.RingMBs) }

// PageDiskTime returns the media transfer time of one page.
func (c Config) PageDiskTime() int64 { return TransferPcycles(int64(c.PageSize), c.DiskMBs) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("param: Nodes=%d must be >= 1", c.Nodes)
	case c.IONodes < 1 || c.IONodes > c.Nodes:
		return fmt.Errorf("param: IONodes=%d must be in [1,%d]", c.IONodes, c.Nodes)
	case c.MeshW*c.MeshH != c.Nodes:
		return fmt.Errorf("param: mesh %dx%d does not cover %d nodes", c.MeshW, c.MeshH, c.Nodes)
	case c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("param: PageSize=%d must be a positive power of two", c.PageSize)
	case c.MemPerNode < c.PageSize:
		return fmt.Errorf("param: MemPerNode=%d below one page", c.MemPerNode)
	case c.FramesPerNode() > dense.MaxCapacity:
		return fmt.Errorf("param: FramesPerNode=%d must be <= %d", c.FramesPerNode(), dense.MaxCapacity)
	case c.TLBEntries < 1 || c.TLBEntries > dense.MaxCapacity:
		return fmt.Errorf("param: TLBEntries=%d must be in [1,%d]", c.TLBEntries, dense.MaxCapacity)
	case c.L2SubBlocks < 1 || c.L2SubBlocks > dense.MaxCapacity:
		return fmt.Errorf("param: L2SubBlocks=%d must be in [1,%d]", c.L2SubBlocks, dense.MaxCapacity)
	case c.MinFreeFrames < 1:
		return fmt.Errorf("param: MinFreeFrames=%d must be >= 1", c.MinFreeFrames)
	case c.MinFreeFrames >= c.FramesPerNode():
		return fmt.Errorf("param: MinFreeFrames=%d must be below FramesPerNode=%d",
			c.MinFreeFrames, c.FramesPerNode())
	case c.RingChannels < c.Nodes:
		return fmt.Errorf("param: RingChannels=%d must be >= Nodes=%d (one writable channel per node)",
			c.RingChannels, c.Nodes)
	case c.RingChanBytes < c.PageSize:
		return fmt.Errorf("param: RingChanBytes=%d below one page", c.RingChanBytes)
	case c.DiskCacheBytes < c.PageSize:
		return fmt.Errorf("param: DiskCacheBytes=%d below one page", c.DiskCacheBytes)
	case c.MinSeek < 0 || c.MaxSeek < c.MinSeek:
		return fmt.Errorf("param: seek range [%d,%d] invalid", c.MinSeek, c.MaxSeek)
	case c.StripeGroup < 1:
		return fmt.Errorf("param: StripeGroup=%d must be >= 1", c.StripeGroup)
	case c.FaultRetries < 0 || c.FaultBackoff < 0:
		return fmt.Errorf("param: fault retry policy (retries=%d backoff=%d) must be non-negative",
			c.FaultRetries, c.FaultBackoff)
	case c.Scale <= 0:
		return fmt.Errorf("param: Scale=%f must be positive", c.Scale)
	}
	return nil
}
