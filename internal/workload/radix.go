package workload

import (
	"math/rand"

	"nwcache/internal/machine"
)

// Radix is the integer radix sort of Table 2: 320K keys with radix 1024,
// sorted in three 10-bit passes between a source and a destination array.
// Each pass histograms the local keys, merges into a global histogram
// under a lock, then permutes keys into the destination — the scattered
// writes that make radix hostile to page locality.
type Radix struct {
	keys   int
	passes int
	src    Arr
	dst    Arr
	hist   Arr // global histogram (1024 buckets)
	pages  int64
	seed   int64
}

// Radix cost model.
const (
	radixCyclesPerKeyHist    = 2
	radixCyclesPerKeyPermute = 4
	// radixScatterFanout is the number of distinct destination regions
	// modeled per 1 KB of source keys during the permute (keys of one
	// sub-block spread over ~fanout destination pages).
	radixScatterFanout = 16
)

// NewRadix builds the radix sort program at the given scale.
func NewRadix(scale float64, seed int64) *Radix {
	keys := int(float64(320*1024) * scale)
	if keys < 4096 {
		keys = 4096
	}
	r := &Radix{keys: keys, passes: 3, seed: seed}
	var sp Space
	r.src = sp.Alloc("src", int64(keys)*4)
	r.dst = sp.Alloc("dst", int64(keys)*4)
	r.hist = sp.Alloc("hist", 1024*8)
	r.pages = sp.Pages()
	return r
}

// Name implements machine.Program.
func (r *Radix) Name() string { return "radix" }

// DataPages implements machine.Program.
func (r *Radix) DataPages() int64 { return r.pages }

// Run implements machine.Program.
func (r *Radix) Run(ctx *machine.Ctx, proc int) {
	loK, hiK := blockRange(r.keys, ctx.Procs(), proc)
	lo, hi := int64(loK)*4, int64(hiK)*4
	// Each processor derives the same scatter pattern per pass from a
	// deterministic pass-and-proc seeded PRNG, standing in for the key
	// distribution. One source per processor, reseeded each pass: Seed
	// resets it to exactly the state NewSource builds.
	src, dst := r.src, r.dst
	rng := rand.New(rand.NewSource(0))
	for pass := 0; pass < r.passes; pass++ {
		rng.Seed(r.seed + int64(pass)*7919 + int64(proc)*104729)
		// Phase 1: histogram own keys (sequential read sweep).
		for off := lo; off < hi; off += SubSize {
			n := min64(SubSize, hi-off)
			Read(ctx, src, off, n)
			ctx.Compute(n / 4 * radixCyclesPerKeyHist)
		}
		// Phase 2: merge into the global histogram under the lock.
		ctx.LockAcquire(0)
		Read(ctx, r.hist, 0, r.hist.Bytes)
		Write(ctx, r.hist, 0, r.hist.Bytes)
		ctx.LockRelease(0)
		ctx.Barrier()
		// All processors read the finished histogram (prefix sums).
		Read(ctx, r.hist, 0, r.hist.Bytes)
		// Phase 3: permute into the destination: sequential source reads,
		// scattered destination writes.
		for off := lo; off < hi; off += SubSize {
			n := min64(SubSize, hi-off)
			Read(ctx, src, off, n)
			per := n / radixScatterFanout
			if per < LineSize {
				per = LineSize
			}
			for d := int64(0); d < radixScatterFanout && d*per < n; d++ {
				dstOff := rng.Int63n(r.dst.Bytes - per)
				Write(ctx, dst, dstOff, per)
			}
			ctx.Compute(n / 4 * radixCyclesPerKeyPermute)
		}
		ctx.Barrier()
		src, dst = dst, src
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
