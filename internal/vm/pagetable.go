// Package vm provides the operating system's virtual-memory data
// structures: the single machine-wide page table (whose entries are
// accessed with mutual exclusion, as in the paper's base system) and the
// per-node page-frame pools with LRU replacement and a minimum-free-frames
// floor.
//
// The fault/swap orchestration that drives these structures lives in
// internal/machine; this package owns state and invariants.
package vm

import (
	"fmt"

	"nwcache/internal/optical"
	"nwcache/internal/sim"
)

// PageID is a virtual page number.
type PageID = int64

// PageState is the lifecycle of a page with respect to memory.
type PageState int

// Page states. A page has at most one copy beyond the disk controller's
// boundary: in some node's memory (Resident) or on the optical ring
// (OnRing) — never both (the paper's coherence argument).
const (
	Unmapped PageState = iota // only on disk
	Transit                   // a node is fetching it (fault in progress)
	Resident                  // in the owner node's memory
	OnRing                    // swapped out, stored on the NWCache ring
)

// String implements fmt.Stringer.
func (s PageState) String() string {
	switch s {
	case Unmapped:
		return "Unmapped"
	case Transit:
		return "Transit"
	case Resident:
		return "Resident"
	case OnRing:
		return "OnRing"
	}
	return fmt.Sprintf("PageState(%d)", int(s))
}

// Entry is one page-table entry.
type Entry struct {
	Page  PageID
	State PageState
	Owner int  // node holding the copy (Resident), or last owner
	Dirty bool // modified since last disk write

	// LastSwapper is the node that last swapped the page out: with the
	// Ring bit set it identifies the cache channel holding the page (the
	// paper's "last virtual-to-physical translation").
	LastSwapper int
	RingEntry   optical.Ref // the ring copy when State == OnRing; may have left the ring since

	// Lock provides the paper's per-entry mutual exclusion.
	Lock sim.Mutex
	// Arrived is broadcast when a Transit completes, waking processors
	// that faulted on a page already being fetched.
	Arrived sim.Cond
	// TransitBy is, while State == Transit, the node fetching the page,
	// or -1 while a swap-out carries it away (what a waiter is charged
	// to depends on which).
	TransitBy int
}

// Table is the machine-wide page table. Pages are handed out from a dense
// 0..N bump allocator (workload.Space), so the table is a slice indexed by
// page number rather than a map: entry lookup on the per-access hot path is
// a bounds check and a load, and the index grows only when the workload
// touches a new high page.
//
// Entries are held by value, lock and wait queue included, in chunks that
// never move: callers keep *Entry across the table's growth, so a new
// entry is carved from the current chunk and only the index of pointers
// is ever copied. Presize sizes both from the footprint, after which
// creating an entry allocates nothing.
type Table struct {
	e       *sim.Engine
	entries []*Entry
	spare   []Entry // the current chunk's unused tail
	count   int
}

// tableChunk is how many entries a chunk holds when the table grows past
// its presized footprint.
const tableChunk = 256

// NewTable returns an empty page table.
func NewTable(e *sim.Engine) *Table {
	return &Table{e: e}
}

// Presize sizes the table for pages 0..pages-1: one index and one chunk
// holding every entry not yet created, so Get never allocates for them.
func (t *Table) Presize(pages int64) {
	if pages > PageID(len(t.entries)) {
		grown := make([]*Entry, pages)
		copy(grown, t.entries)
		t.entries = grown
	}
	if need := int(pages) - t.count; need > len(t.spare) {
		t.spare = make([]Entry, need)
	}
}

// Get returns the entry for page, creating an Unmapped one on first use.
func (t *Table) Get(page PageID) *Entry {
	if page < 0 {
		panic(fmt.Sprintf("vm: negative page %d", page))
	}
	if page >= PageID(len(t.entries)) {
		grown := make([]*Entry, page+page/2+8)
		copy(grown, t.entries)
		t.entries = grown
	}
	en := t.entries[page]
	if en == nil {
		if len(t.spare) == 0 {
			t.spare = make([]Entry, tableChunk)
		}
		en = &t.spare[0]
		t.spare = t.spare[1:]
		en.Page, en.State, en.Owner, en.LastSwapper = page, Unmapped, -1, -1
		en.Lock.Init(t.e)
		en.Arrived.Init(t.e)
		t.entries[page] = en
		t.count++
	}
	return en
}

// Lookup returns the entry if it exists, without creating it.
func (t *Table) Lookup(page PageID) (*Entry, bool) {
	if page < 0 || page >= PageID(len(t.entries)) {
		return nil, false
	}
	en := t.entries[page]
	return en, en != nil
}

// Len returns the number of instantiated entries.
func (t *Table) Len() int { return t.count }
