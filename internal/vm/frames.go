package vm

import (
	"fmt"

	"nwcache/internal/dense"
	"nwcache/internal/obs"
	"nwcache/internal/sim"
)

// FramePool manages one node's physical page frames: a free count, the LRU
// order of resident pages, and the operating system's minimum-free-frames
// floor that triggers replacement.
//
// The LRU is a page-keyed dense.LRU (pages are a dense 0..N range
// machine-wide: workload.Space hands them out from a bump allocator), so
// the per-access hot path (Touch, Contains, Alloc/Remove churn) performs
// zero heap allocations in steady state.
type FramePool struct {
	node    int
	total   int
	free    int
	minFree int

	// Frames not free are in exactly one of three states, and the pool
	// tracks each explicitly so misuse panics name the real violation:
	//   resident — on the LRU list (lru.Len)
	//   reserved — consumed by Reserve, not yet bound to a page
	//   detached — unmapped by Unmap, awaiting ReleaseFrame
	// Invariant: free + lru.Len + reserved + detached == total.
	reserved int
	detached int

	lru dense.LRU

	// FrameFreed is broadcast whenever a frame becomes free, waking
	// processors stalled in NoFree and the replacement daemon.
	FrameFreed *sim.Cond
	// Pressure is signaled when free drops to/below the floor, waking the
	// replacement daemon.
	Pressure *sim.Cond

	// Statistics. Evictions counts frames recovered from resident pages,
	// whether synchronously (Remove: clean page dropped) or at the end of a
	// swap-out (ReleaseFrame). Unreserve is not an eviction: the frame never
	// held a page.
	Allocs    uint64
	Evictions uint64

	// Frame state-transition counters, nil until Observe wires them. The
	// counters are fetched from the registry by name, so every node's pool
	// observed under the same scope shares one machine-wide set.
	cReserve   *obs.Counter
	cUnreserve *obs.Counter
	cAdopt     *obs.Counter
	cUnmap     *obs.Counter
	cRelease   *obs.Counter
	cRemove    *obs.Counter
}

// NewFramePool returns a pool of `frames` free frames for a node (frames
// at most dense.MaxCapacity).
func NewFramePool(e *sim.Engine, node, frames, minFree int) *FramePool {
	if minFree < 1 || minFree >= frames {
		panic(fmt.Sprintf("vm: node %d: minFree %d out of range for %d frames", node, minFree, frames))
	}
	return &FramePool{
		node:       node,
		total:      frames,
		free:       frames,
		minFree:    minFree,
		lru:        dense.NewLRU(frames),
		FrameFreed: sim.NewCond(e),
		Pressure:   sim.NewCond(e),
	}
}

// Presize sizes the page index for pages 0..pages-1, so mapping them
// never regrows it.
func (f *FramePool) Presize(pages int64) { f.lru.Presize(pages) }

// Observe wires the pool's frame state machine into an obs scope: one
// counter per transition (reserve, adopt, unmap, release, ...). Several
// pools observed under the same scope share the counters (registry
// get-or-create), yielding machine-wide transition totals. No-op on a
// nil scope; the hot allocation paths then pay one nil check each.
func (f *FramePool) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	f.cReserve = sc.Counter("reserve")
	f.cUnreserve = sc.Counter("unreserve")
	f.cAdopt = sc.Counter("adopt")
	f.cUnmap = sc.Counter("unmap")
	f.cRelease = sc.Counter("release_frame")
	f.cRemove = sc.Counter("remove")
}

// Free returns the current free-frame count.
func (f *FramePool) Free() int { return f.free }

// Total returns the pool size.
func (f *FramePool) Total() int { return f.total }

// MinFree returns the configured floor.
func (f *FramePool) MinFree() int { return f.minFree }

// Resident returns the number of pages mapped in this pool.
func (f *FramePool) Resident() int { return f.lru.Len() }

// Reserved returns the number of frames consumed by Reserve and not yet
// bound (AdoptReserved) or returned (Unreserve).
func (f *FramePool) Reserved() int { return f.reserved }

// Detached returns the number of frames unmapped by Unmap and not yet freed
// by ReleaseFrame (swap-outs in flight).
func (f *FramePool) Detached() int { return f.detached }

// BelowFloor reports whether the free count is at or below the floor,
// i.e. the replacement daemon should be working.
func (f *FramePool) BelowFloor() bool { return f.free <= f.minFree }

// HasFree reports whether an allocation can proceed immediately.
func (f *FramePool) HasFree() bool { return f.free > 0 }

// Alloc consumes one free frame for page and inserts it as most recently
// used. The caller must have ensured HasFree (stalling in NoFree
// otherwise); violating that is a programming error.
func (f *FramePool) Alloc(page PageID) {
	f.Reserve()
	f.AdoptReserved(page)
}

// Reserve consumes one free frame without binding it to a page yet: the
// fault path grabs the frame before the (long) I/O that fills it, and the
// page only becomes replaceable once AdoptReserved maps it. Panics with no
// free frames.
func (f *FramePool) Reserve() {
	if f.free == 0 {
		panic(fmt.Sprintf("vm: node %d: Reserve with no free frames", f.node))
	}
	f.free--
	f.reserved++
	f.Allocs++
	f.cReserve.Inc()
	if f.BelowFloor() {
		f.Pressure.Signal()
	}
}

// Unreserve returns a Reserved frame unused (the fault it was held for
// resolved another way), waking NoFree stalls.
func (f *FramePool) Unreserve() {
	if f.reserved == 0 {
		panic(fmt.Sprintf("vm: node %d: Unreserve without a reservation", f.node))
	}
	f.reserved--
	f.free++
	f.cUnreserve.Inc()
	f.FrameFreed.Broadcast()
}

// AdoptReserved binds a previously Reserved frame to page, making it
// visible to LRU replacement.
func (f *FramePool) AdoptReserved(page PageID) {
	if page < 0 {
		panic(fmt.Sprintf("vm: node %d: negative page %d", f.node, page))
	}
	if f.lru.Find(page) >= 0 {
		panic(fmt.Sprintf("vm: node %d: page %d already resident", f.node, page))
	}
	if f.reserved == 0 {
		panic(fmt.Sprintf("vm: node %d: AdoptReserved without a reservation", f.node))
	}
	f.reserved--
	f.lru.Insert(page)
	f.cAdopt.Inc()
}

// Touch refreshes page's LRU position (on access). No-op if not present.
func (f *FramePool) Touch(page PageID) {
	if s := f.lru.Find(page); s >= 0 {
		f.lru.Touch(s)
	}
}

// Contains reports whether page occupies a frame in this pool.
func (f *FramePool) Contains(page PageID) bool { return f.lru.Find(page) >= 0 }

// VictimLRU returns the least recently used resident page without removing
// it, or false if the pool is empty.
func (f *FramePool) VictimLRU() (PageID, bool) {
	s := f.lru.Tail()
	if s < 0 {
		return 0, false
	}
	return f.lru.Key(s), true
}

// drop takes page off the LRU and recycles its slot.
func (f *FramePool) drop(page PageID, op string) {
	s := f.lru.Find(page)
	if s < 0 {
		panic(fmt.Sprintf("vm: node %d: %s non-resident page %d", f.node, op, page))
	}
	f.lru.Remove(s)
}

// Remove unmaps page, freeing its frame and waking NoFree stalls. The
// page must be present.
func (f *FramePool) Remove(page PageID) {
	f.drop(page, "removing")
	f.free++
	f.Evictions++
	f.cRemove.Inc()
	f.FrameFreed.Broadcast()
}

// Unmap removes the page from the LRU/present set WITHOUT freeing the
// frame: used at the start of a swap-out, when the page's data still sits
// in the frame until the disk (or ring) has taken it. Pair with
// ReleaseFrame when the copy is safe.
func (f *FramePool) Unmap(page PageID) {
	f.drop(page, "unmapping")
	f.detached++
	f.cUnmap.Inc()
}

// ReleaseFrame frees a frame previously detached with Unmap (the ACK
// arrived / the ring insert completed: the memory can be reused).
func (f *FramePool) ReleaseFrame() {
	if f.detached == 0 {
		panic(fmt.Sprintf("vm: node %d: frame over-release", f.node))
	}
	f.detached--
	f.free++
	f.Evictions++
	f.cRelease.Inc()
	f.FrameFreed.Broadcast()
}
