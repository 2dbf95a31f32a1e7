// Package tlb models per-processor translation lookaside buffers and the
// machine-wide TLB-shootdown protocol of the paper's base system: every
// time the access rights for a page are downgraded, all other processors
// are interrupted and delete their entry for the page.
package tlb

import "nwcache/internal/dense"

// TLB is a fully-associative LRU translation buffer tracking virtual page
// numbers. Costs (miss, shootdown, interrupt) are charged by the caller
// using the configured latencies; the TLB itself only tracks presence.
//
// The buffer is a page-keyed dense.LRU; a TLB sits in front of every
// simulated memory access, so its lookup/fill/evict churn must not
// allocate. Pages must be non-negative (a negative page panics on fill).
type TLB struct {
	lru    dense.LRU
	Hits   uint64
	Misses uint64
}

// New returns an empty TLB holding up to capacity translations
// (capacity in [1, dense.MaxCapacity]).
func New(capacity int) *TLB {
	return &TLB{lru: dense.NewLRU(capacity)}
}

// Presize sizes the page index for pages 0..pages-1, so filling them
// never regrows it.
func (t *TLB) Presize(pages int64) { t.lru.Presize(pages) }

// Lookup touches the translation for page, returning true on hit. On miss
// the translation is inserted (modeling the hardware walk + fill), evicting
// the least recently used entry if full.
func (t *TLB) Lookup(page int64) bool {
	if s := t.lru.Find(page); s >= 0 {
		t.lru.Touch(s)
		t.Hits++
		return true
	}
	t.Misses++
	if t.lru.Full() {
		t.lru.Remove(t.lru.Tail())
	}
	t.lru.Insert(page)
	return false
}

// Contains reports presence without touching LRU state or counters.
func (t *TLB) Contains(page int64) bool { return t.lru.Find(page) >= 0 }

// Invalidate removes the translation for page (shootdown victim side).
// Returns true if an entry was present.
func (t *TLB) Invalidate(page int64) bool {
	s := t.lru.Find(page)
	if s < 0 {
		return false
	}
	t.lru.Remove(s)
	return true
}

// Len returns the number of valid entries.
func (t *TLB) Len() int { return t.lru.Len() }

// Flush removes every entry.
func (t *TLB) Flush() {
	for t.lru.Len() > 0 {
		t.lru.Remove(t.lru.Tail())
	}
}
