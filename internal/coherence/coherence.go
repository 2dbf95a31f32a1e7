// Package coherence implements the DASH-like directory-based cache
// coherence protocol of the paper's base machine (§4: "a DASH-like
// cache-coherent multiprocessor based on Release Consistency").
//
// Coherence is tracked at sub-page block granularity (1 KB, matching the
// simulator's memory cost model). Each block has a directory entry at its
// page's current home (the node holding the page frame), with the classic
// MSI states:
//
//   - Invalid: no cache holds the block;
//   - Shared: one or more caches hold a read-only copy;
//   - Modified: exactly one cache holds a dirty copy.
//
// The package provides the state machines (per-node caches and the global
// directory); the machine layer drives them and charges the mesh/bus
// timing for each transaction kind returned by the protocol functions.
//
// Both structures are on the simulator's per-access hot path, so they
// avoid steady-state heap allocation: the cache is a block-keyed
// dense.LRU, and the directory stores entries by value with a reusable
// invalidation scratch list.
package coherence

import (
	"fmt"
	"math/bits"

	"nwcache/internal/dense"
	"nwcache/internal/obs"
)

// State is a cache line's MSI state.
type State uint8

// MSI states.
const (
	Invalid State = iota
	Shared
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// SubPerPage is the number of coherence blocks per page.
const SubPerPage = 4

// key packs (page, sub) into a block id.
func key(page int64, sub int) int64 { return page*SubPerPage + int64(sub) }

// Cache is one node's coherent cache: LRU over blocks with MSI states.
// Blocks are keyed page*SubPerPage+sub in a dense.LRU, with each slot's
// state in a parallel slice, so the hit/miss/evict churn never touches
// the heap.
type Cache struct {
	lru   dense.LRU
	state []State // per LRU slot
	node  int

	Hits       uint64
	Misses     uint64
	Upgrades   uint64
	Writebacks uint64
}

// NewCache returns an empty coherent cache of `capacity` blocks
// (capacity in [1, dense.MaxCapacity]).
func NewCache(node, capacity int) *Cache {
	return &Cache{
		lru:   dense.NewLRU(capacity),
		state: make([]State, capacity),
		node:  node,
	}
}

// Presize sizes the block index for pages 0..pages-1, so caching their
// blocks never regrows it.
func (c *Cache) Presize(pages int64) { c.lru.Presize(pages * SubPerPage) }

// Observe wires the cache's hit/miss statistics into an obs scope as
// pull-based probes (typically one scope per node). No-op on a nil
// scope.
func (c *Cache) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.ProbeCounter("hits", func() int64 { return int64(c.Hits) })
	sc.ProbeCounter("misses", func() int64 { return int64(c.Misses) })
	sc.ProbeCounter("upgrades", func() int64 { return int64(c.Upgrades) })
	sc.ProbeCounter("writebacks", func() int64 { return int64(c.Writebacks) })
}

// State returns the cached state of a block (Invalid if absent), touching
// LRU on presence.
func (c *Cache) State(page int64, sub int) State {
	if s := c.lru.Find(key(page, sub)); s >= 0 {
		c.lru.Touch(s)
		return c.state[s]
	}
	return Invalid
}

// Evicted describes a block pushed out of a cache by an insertion.
type Evicted struct {
	Page     int64
	Sub      int
	Modified bool // a dirty copy left the cache: it must be written back
}

// Insert places a block in state st, evicting the LRU block if full.
// Returns the eviction (if any) so the caller can write back dirty data
// and update the directory.
func (c *Cache) Insert(page int64, sub int, st State) (ev Evicted, evicted bool) {
	k := key(page, sub)
	if s := c.lru.Find(k); s >= 0 {
		c.state[s] = st
		c.lru.Touch(s)
		return Evicted{}, false
	}
	if c.lru.Full() {
		s := c.lru.Tail()
		vk := c.lru.Key(s)
		ev = Evicted{
			Page:     vk / SubPerPage,
			Sub:      int(vk % SubPerPage),
			Modified: c.state[s] == Modified,
		}
		if ev.Modified {
			c.Writebacks++
		}
		evicted = true
		c.lru.Remove(s)
	}
	c.state[c.lru.Insert(k)] = st
	return ev, evicted
}

// SetState changes the state of a cached block (upgrade/downgrade); the
// block must be present.
func (c *Cache) SetState(page int64, sub int, st State) {
	s := c.lru.Find(key(page, sub))
	if s < 0 {
		panic(fmt.Sprintf("coherence: node %d: SetState on absent block %d/%d", c.node, page, sub))
	}
	c.state[s] = st
}

// Drop removes a block (invalidation). Reports whether it was present and
// whether the dropped copy was Modified.
func (c *Cache) Drop(page int64, sub int) (present, wasModified bool) {
	s := c.lru.Find(key(page, sub))
	if s < 0 {
		return false, false
	}
	wasModified = c.state[s] == Modified
	c.lru.Remove(s)
	return true, wasModified
}

// DropPage removes every block of a page (page eviction from memory).
func (c *Cache) DropPage(page int64) int {
	n := 0
	for sub := 0; sub < SubPerPage; sub++ {
		if present, _ := c.Drop(page, sub); present {
			n++
		}
	}
	return n
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.lru.Len() }

// Directory tracks, per block, which caches hold it and in what state.
// A single global structure suffices in the simulator (the home node is
// wherever the page currently resides; timing is charged by the caller).
//
// Block ids are small and dense (workload pages are compact integers, as
// vm.Table exploits), so the directory is a flat slice indexed by block id
// rather than a map: every Read/Write on the access hot path costs one
// bounds-checked index instead of a hash + bucket probe. A slot's zero
// value means "no entry" — owner is stored biased by one (0 = none,
// i+1 = node i) so clearing a slot is a plain zero store.
type Directory struct {
	slots      []dirSlot
	count      int // non-empty slots, for Len/Observe
	invScratch []int

	// Statistics: snoop traffic the directory ordered.
	Invalidations uint64 // Shared copies ordered invalidated
	Forwards      uint64 // cache-to-cache transfers ordered
}

// dirSlot is one block's directory state, zero value = absent.
type dirSlot struct {
	sharers uint64 // bitmask of nodes with Shared copies
	owner   int32  // 0 = no Modified copy; i+1 = node i owns it
}

func (s dirSlot) empty() bool { return s.sharers == 0 && s.owner == 0 }

// DirEntry is one block's directory state as seen by callers.
type DirEntry struct {
	Sharers uint64 // bitmask of nodes with Shared copies
	Owner   int    // node with the Modified copy, or -1
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{}
}

// Presize sizes the table for the blocks of pages 0..pages-1, so tracking
// them never regrows it.
func (d *Directory) Presize(pages int64) {
	if n := pages * SubPerPage; n > int64(len(d.slots)) {
		grown := make([]dirSlot, n)
		copy(grown, d.slots)
		d.slots = grown
	}
}

// slot returns the slot for block k, growing the table on demand (same
// amortized-growth shape as vm.Table).
func (d *Directory) slot(k int64) *dirSlot {
	if k >= int64(len(d.slots)) {
		grown := make([]dirSlot, k+k/2+8)
		copy(grown, d.slots)
		d.slots = grown
	}
	return &d.slots[k]
}

// Lookup returns the entry if present.
func (d *Directory) Lookup(page int64, sub int) (DirEntry, bool) {
	k := key(page, sub)
	if k >= int64(len(d.slots)) {
		return DirEntry{}, false
	}
	s := d.slots[k]
	if s.empty() {
		return DirEntry{}, false
	}
	return DirEntry{Sharers: s.sharers, Owner: int(s.owner) - 1}, true
}

// Txn describes the coherence traffic one access requires; the machine
// layer prices it.
type Txn struct {
	// FetchFrom is the node whose cache must forward a Modified copy
	// (cache-to-cache transfer), or -1 if memory supplies the data.
	FetchFrom int
	// Invalidate lists nodes whose Shared copies must be invalidated. The
	// slice aliases the directory's scratch buffer: it is valid until the
	// next Read/Write call on the same directory.
	Invalidate []int
	// MemoryData is true when the block comes from the home memory.
	MemoryData bool
}

// Read records node n obtaining a Shared copy and returns the traffic
// needed. The caller must afterwards Insert into n's cache.
func (d *Directory) Read(page int64, sub int, n int) Txn {
	s := d.slot(key(page, sub))
	if s.empty() {
		d.count++ // n joins the sharers below, so the slot fills
	}
	t := Txn{FetchFrom: -1}
	if o := int(s.owner) - 1; o >= 0 && o != n {
		// Dirty copy elsewhere: forward it and downgrade to Shared.
		t.FetchFrom = o
		d.Forwards++
		s.sharers |= 1 << uint(o)
		s.owner = 0
	} else {
		t.MemoryData = true
	}
	s.sharers |= 1 << uint(n)
	return t
}

// Write records node n obtaining the Modified copy and returns the
// traffic needed (forward from a dirty owner and/or invalidations of
// sharers). The caller must afterwards Insert/SetState in n's cache.
// The returned Invalidate slice is valid until the next Read/Write.
func (d *Directory) Write(page int64, sub int, n int) Txn {
	s := d.slot(key(page, sub))
	if s.empty() {
		d.count++ // n becomes the owner below, so the slot fills
	}
	t := Txn{FetchFrom: -1}
	o := int(s.owner) - 1
	if o >= 0 && o != n {
		t.FetchFrom = o
		d.Forwards++
	} else if o != n {
		t.MemoryData = s.sharers&(1<<uint(n)) == 0 // upgrade needs no data
	}
	inv := d.invScratch[:0]
	for b := s.sharers &^ (1 << uint(n)); b != 0; b &= b - 1 {
		inv = append(inv, bits.TrailingZeros64(b))
	}
	d.invScratch = inv[:0]
	if len(inv) > 0 {
		t.Invalidate = inv
		d.Invalidations += uint64(len(inv))
	}
	s.sharers = 0
	s.owner = int32(n) + 1
	return t
}

// EvictShared records a silent drop of a Shared copy.
func (d *Directory) EvictShared(page int64, sub int, n int) {
	k := key(page, sub)
	if k >= int64(len(d.slots)) {
		return
	}
	s := &d.slots[k]
	if s.empty() {
		return
	}
	s.sharers &^= 1 << uint(n)
	if s.empty() {
		d.count--
	}
}

// EvictModified records the write-back of a Modified copy to memory.
func (d *Directory) EvictModified(page int64, sub int, n int) {
	k := key(page, sub)
	if k >= int64(len(d.slots)) {
		return
	}
	s := &d.slots[k]
	if int(s.owner)-1 == n {
		s.owner = 0
		if s.sharers == 0 {
			d.count--
		}
	}
}

// DropPage clears every directory entry of a page (the page left memory;
// all cached copies are being invalidated by the shootdown).
func (d *Directory) DropPage(page int64) {
	for sub := 0; sub < SubPerPage; sub++ {
		k := key(page, sub)
		if k >= int64(len(d.slots)) {
			return
		}
		s := &d.slots[k]
		if !s.empty() {
			*s = dirSlot{}
			d.count--
		}
	}
}

// Len returns the number of tracked blocks (for tests).
func (d *Directory) Len() int { return d.count }

// Observe wires the directory's snoop statistics into an obs scope as
// pull-based probes. No-op on a nil scope.
func (d *Directory) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.ProbeCounter("invalidations", func() int64 { return int64(d.Invalidations) })
	sc.ProbeCounter("forwards", func() int64 { return int64(d.Forwards) })
	sc.ProbeGauge("tracked_blocks", func() int64 { return int64(d.count) })
}
