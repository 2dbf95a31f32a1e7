package coherence

import (
	"testing"
	"testing/quick"
)

func TestCacheInsertLookupStates(t *testing.T) {
	c := NewCache(4)
	if c.State(1, 0) != Invalid {
		t.Fatal("absent block not Invalid")
	}
	c.Insert(1, 0, Shared)
	if c.State(1, 0) != Shared {
		t.Fatal("Shared state lost")
	}
	c.Insert(1, 0, Modified)
	if c.State(1, 0) != Modified {
		t.Fatal("upgrade lost")
	}
}

func TestCacheEvictionReportsModified(t *testing.T) {
	c := NewCache(2)
	c.Insert(1, 0, Modified)
	c.Insert(2, 0, Shared)
	ev, evicted := c.Insert(3, 0, Shared) // evicts (1,0), the LRU
	if !evicted {
		t.Fatal("no eviction at capacity")
	}
	if ev.Page != 1 || ev.Sub != 0 || !ev.Modified {
		t.Fatalf("eviction %+v", ev)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks %d", c.Writebacks)
	}
}

func TestCacheReinsertDoesNotEvict(t *testing.T) {
	c := NewCache(2)
	c.Insert(1, 0, Shared)
	c.Insert(2, 0, Shared)
	if _, evicted := c.Insert(1, 0, Modified); evicted {
		t.Fatal("state change evicted")
	}
	if c.State(1, 0) != Modified {
		t.Fatal("state not updated")
	}
}

func TestCacheDropAndDropPage(t *testing.T) {
	c := NewCache(8)
	for sub := 0; sub < SubPerPage; sub++ {
		c.Insert(5, sub, Shared)
	}
	c.Insert(6, 0, Modified)
	if present, wasM := c.Drop(6, 0); !present || !wasM {
		t.Fatal("drop of modified block misreported")
	}
	if n := c.DropPage(5); n != SubPerPage {
		t.Fatalf("dropped %d blocks of page 5", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestDirectoryReadFromMemory(t *testing.T) {
	d := NewDirectory()
	txn := d.Read(10, 0, 3)
	if !txn.MemoryData || txn.FetchFrom != -1 || len(txn.Invalidate) != 0 {
		t.Fatalf("txn %+v", txn)
	}
	en, ok := d.Lookup(10, 0)
	if !ok || en.Sharers != 1<<3 {
		t.Fatalf("dir entry %+v", en)
	}
}

func TestDirectoryReadForwardsFromDirtyOwner(t *testing.T) {
	d := NewDirectory()
	d.Write(10, 0, 2) // node 2 holds Modified
	txn := d.Read(10, 0, 5)
	if txn.FetchFrom != 2 {
		t.Fatalf("expected forward from 2, got %+v", txn)
	}
	en, _ := d.Lookup(10, 0)
	if en.Owner != -1 {
		t.Fatal("owner not downgraded")
	}
	if en.Sharers != (1<<2)|(1<<5) {
		t.Fatalf("sharers %b", en.Sharers)
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory()
	d.Read(10, 0, 1)
	d.Read(10, 0, 2)
	d.Read(10, 0, 4)
	txn := d.Write(10, 0, 2)
	if len(txn.Invalidate) != 2 {
		t.Fatalf("invalidations %v, want nodes 1 and 4", txn.Invalidate)
	}
	for _, s := range txn.Invalidate {
		if s != 1 && s != 4 {
			t.Fatalf("invalidated wrong node %d", s)
		}
	}
	en, _ := d.Lookup(10, 0)
	if en.Owner != 2 || en.Sharers != 0 {
		t.Fatalf("dir after write %+v", en)
	}
}

func TestDirectoryWriteUpgradeNeedsNoData(t *testing.T) {
	d := NewDirectory()
	d.Read(10, 0, 2) // node 2 Shared
	txn := d.Write(10, 0, 2)
	if txn.MemoryData || txn.FetchFrom != -1 {
		t.Fatalf("upgrade fetched data: %+v", txn)
	}
}

func TestDirectoryWriteAfterWriteForwards(t *testing.T) {
	d := NewDirectory()
	d.Write(10, 0, 1)
	txn := d.Write(10, 0, 2)
	if txn.FetchFrom != 1 {
		t.Fatalf("txn %+v, want forward from 1", txn)
	}
}

func TestDirectoryEvictionsGC(t *testing.T) {
	d := NewDirectory()
	d.Read(3, 1, 0)
	d.EvictShared(3, 1, 0)
	if d.Len() != 0 {
		t.Fatal("empty entry not collected")
	}
	d.Write(4, 0, 5)
	d.EvictModified(4, 0, 5)
	if d.Len() != 0 {
		t.Fatal("modified eviction not collected")
	}
	// Evictions of untracked blocks are harmless no-ops.
	d.EvictShared(9, 0, 1)
	d.EvictModified(9, 0, 1)
}

func TestDirectoryDropPage(t *testing.T) {
	d := NewDirectory()
	for sub := 0; sub < SubPerPage; sub++ {
		d.Read(7, sub, 1)
	}
	d.DropPage(7)
	if d.Len() != 0 {
		t.Fatalf("%d entries survived DropPage", d.Len())
	}
}

func TestStateStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings")
	}
}

func TestSingleWriterInvariantProperty(t *testing.T) {
	// Property: after any sequence of reads/writes by random nodes, each
	// block has either one Modified owner and no sharers, or no owner —
	// never both.
	f := func(ops []uint16) bool {
		d := NewDirectory()
		for _, op := range ops {
			node := int(op % 8)
			blockPage := int64(op/8) % 4
			if op%2 == 0 {
				d.Read(blockPage, 0, node)
			} else {
				d.Write(blockPage, 0, node)
			}
			if en, ok := d.Lookup(blockPage, 0); ok {
				if en.Owner >= 0 && en.Sharers != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	f := func(refs []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewCache(capacity)
		for _, r := range refs {
			st := Shared
			if r%3 == 0 {
				st = Modified
			}
			c.Insert(int64(r/SubPerPage), int(r%SubPerPage), st)
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Once presized from the footprint, tracking the pages' blocks never
// regrows the directory.
func TestDirectoryPresizedAllocatesNothing(t *testing.T) {
	d := NewDirectory()
	const pages = 512
	d.Presize(pages)
	page := int64(0)
	avg := testing.AllocsPerRun(pages-1, func() {
		for sub := 0; sub < SubPerPage; sub++ {
			d.Write(page, sub, sub)
		}
		page++
	})
	if avg != 0 {
		t.Fatalf("directory allocates %v per page after Presize, want 0", avg)
	}
	if d.Len() != pages*SubPerPage {
		t.Fatalf("tracked %d blocks, want %d", d.Len(), pages*SubPerPage)
	}
}
