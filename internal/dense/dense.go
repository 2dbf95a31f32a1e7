// Package dense provides the allocation-free LRU shared by the model
// layer's fixed-capacity caches (see MODEL.md, "Model fast path"): the
// TLB, the coherent cache and the frame pool. Their keys are pages (or
// page sub-blocks) from a dense 0..N range, so the key->slot index is a
// plain slice and a lookup is one bounds check and one load.
package dense

import "fmt"

// MaxCapacity is the largest LRU capacity: slot+1 must fit the uint16
// index entries.
const MaxCapacity = 1<<16 - 1

// node is one slot: its key plus intrusive LRU links (slot numbers; -1
// terminates). Free slots are threaded through next.
type node struct {
	key        int64
	prev, next int32
}

// LRU is a fixed-capacity intrusive LRU over slots 0..cap-1. Callers
// keep per-slot payload in their own slices indexed by slot. Insert
// takes a free slot; when Full the caller evicts Tail first, so the
// victim is the caller's to inspect.
//
// Keys must be non-negative. The index maps key -> slot+1 (0 = absent)
// and grows on demand like vm.Table; Presize sizes it once up front so
// the hot path never reallocates.
//
// The zero LRU is not usable; build one with NewLRU. Users embed it by
// value.
type LRU struct {
	nodes []node
	index []uint16
	head  int32 // MRU; -1 when empty
	tail  int32 // LRU; -1 when empty
	free  int32 // free-slot stack via next; -1 when empty
	count int
}

// NewLRU returns an empty LRU of capacity slots. Capacity must lie in
// [1, MaxCapacity].
func NewLRU(capacity int) LRU {
	if capacity < 1 || capacity > MaxCapacity {
		panic(fmt.Sprintf("dense: capacity %d outside [1,%d]", capacity, MaxCapacity))
	}
	l := LRU{nodes: make([]node, capacity), head: -1, tail: -1, free: -1}
	for i := capacity - 1; i >= 0; i-- {
		l.nodes[i].next = l.free
		l.free = int32(i)
	}
	return l
}

// Presize grows the index to cover keys 0..n-1 in one step.
func (l *LRU) Presize(n int64) {
	if n > int64(len(l.index)) {
		grown := make([]uint16, n)
		copy(grown, l.index)
		l.index = grown
	}
}

// Find returns key's slot, or -1 if absent. It does not touch LRU order.
func (l *LRU) Find(key int64) int {
	if uint64(key) < uint64(len(l.index)) {
		return int(l.index[key]) - 1
	}
	return -1
}

// Touch makes slot s the most recently used. A linked slot other than
// the head has a predecessor, and the list then has a head, so the relink
// needs fewer checks than a Remove/Insert pair and inlines.
func (l *LRU) Touch(s int) {
	if int32(s) == l.head {
		return
	}
	n := &l.nodes[s]
	l.nodes[n.prev].next = n.next
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev = -1
	n.next = l.head
	l.nodes[l.head].prev = int32(s)
	l.head = int32(s)
}

// Insert places an absent key in a free slot as most recently used and
// returns the slot. Panics on a negative or present key, or when Full.
func (l *LRU) Insert(key int64) int {
	if key < 0 {
		panic(fmt.Sprintf("dense: negative key %d", key))
	}
	if l.free < 0 {
		panic("dense: Insert into a full LRU")
	}
	if key >= int64(len(l.index)) {
		l.Presize(key + key/2 + 8)
	}
	if l.index[key] != 0 {
		panic(fmt.Sprintf("dense: key %d already present", key))
	}
	s := l.free
	l.free = l.nodes[s].next
	l.nodes[s].key = key
	l.index[key] = uint16(s + 1)
	l.pushFront(s)
	return int(s)
}

// Remove unlinks slot s, drops its key from the index and frees the slot.
func (l *LRU) Remove(s int) {
	l.unlink(s)
	n := &l.nodes[s]
	l.index[n.key] = 0
	n.next = l.free
	l.free = int32(s)
}

// Tail returns the least recently used slot, or -1 when empty.
func (l *LRU) Tail() int { return int(l.tail) }

// Key returns the key held in slot s.
func (l *LRU) Key(s int) int64 { return l.nodes[s].key }

// Len returns the number of keys held.
func (l *LRU) Len() int { return l.count }

// Full reports whether every slot is taken.
func (l *LRU) Full() bool { return l.free < 0 }

// pushFront links slot s in as most recently used.
func (l *LRU) pushFront(s int32) {
	l.nodes[s].prev = -1
	l.nodes[s].next = l.head
	if l.head >= 0 {
		l.nodes[l.head].prev = s
	}
	l.head = s
	if l.tail < 0 {
		l.tail = s
	}
	l.count++
}

// unlink removes slot s from the LRU list.
func (l *LRU) unlink(s int) {
	n := &l.nodes[s]
	if n.prev >= 0 {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	l.count--
}
