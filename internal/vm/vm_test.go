package vm

import (
	"testing"
	"testing/quick"

	"nwcache/internal/sim"
)

func TestTableCreatesUnmappedEntries(t *testing.T) {
	e := sim.New()
	tb := NewTable(e)
	en := tb.Get(42)
	if en.State != Unmapped || en.Owner != -1 || en.LastSwapper != -1 {
		t.Fatalf("fresh entry %+v", en)
	}
	if tb.Get(42) != en {
		t.Fatal("Get not idempotent")
	}
	if tb.Len() != 1 {
		t.Fatalf("len %d", tb.Len())
	}
}

func TestTableLookupDoesNotCreate(t *testing.T) {
	e := sim.New()
	tb := NewTable(e)
	if _, ok := tb.Lookup(7); ok {
		t.Fatal("lookup created entry")
	}
	tb.Get(7)
	if _, ok := tb.Lookup(7); !ok {
		t.Fatal("lookup missed existing entry")
	}
}

func TestEntryLockMutualExclusion(t *testing.T) {
	e := sim.New()
	tb := NewTable(e)
	en := tb.Get(1)
	var order []string
	// lock takes the entry lock, waiting (and retrying) while it is held,
	// and then runs k.
	var lock func(k func())
	lock = func(k func()) {
		if !en.Lock.TryLock() {
			en.Lock.WaitThen(func() { lock(k) })
			return
		}
		k()
	}
	e.At(0, func() {
		lock(func() {
			order = append(order, "a")
			e.At(e.Now()+100, en.Lock.Unlock)
		})
	})
	e.At(1, func() {
		lock(func() {
			order = append(order, "b")
			en.Lock.Unlock()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("b entered at %d, want after a's critical section", e.Now())
	}
}

func TestPageStateStrings(t *testing.T) {
	for s, want := range map[PageState]string{
		Unmapped: "Unmapped", Transit: "Transit", Resident: "Resident", OnRing: "OnRing",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %s", s, s.String())
		}
	}
}

func TestFramePoolAllocRemove(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 1)
	f.Alloc(10)
	f.Alloc(11)
	if f.Free() != 2 || f.Resident() != 2 {
		t.Fatalf("free %d resident %d", f.Free(), f.Resident())
	}
	if !f.Contains(10) {
		t.Fatal("page 10 missing")
	}
	f.Remove(10)
	if f.Free() != 3 || f.Contains(10) {
		t.Fatal("remove did not free")
	}
}

func TestFramePoolLRUVictim(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 1)
	f.Alloc(1)
	f.Alloc(2)
	f.Alloc(3)
	f.Touch(1) // 2 becomes LRU
	v, ok := f.VictimLRU()
	if !ok || v != 2 {
		t.Fatalf("victim %d, want 2", v)
	}
}

func TestFramePoolBelowFloor(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 2)
	if f.BelowFloor() {
		t.Fatal("fresh pool below floor")
	}
	f.Alloc(1)
	f.Alloc(2) // free = 2 = floor
	if !f.BelowFloor() {
		t.Fatal("pool at floor not flagged")
	}
}

func TestFramePoolPressureSignaled(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 2)
	woken := false
	var daemon func()
	daemon = func() {
		f.Pressure.WaitThen(func() {
			woken = true
			daemon()
		})
	}
	daemon()
	e.At(1, func() {
		f.Alloc(1)
		f.Alloc(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("pressure not signaled at floor")
	}
}

func TestFrameFreedWakesNoFreeStall(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 2, 1)
	var acquiredAt sim.Time
	e.At(0, func() {
		f.Alloc(1)
		f.Alloc(2)
		e.At(e.Now()+500, func() { f.Remove(1) })
	})
	var stalled func()
	stalled = func() {
		if !f.HasFree() {
			f.FrameFreed.WaitThen(stalled)
			return
		}
		f.Alloc(3)
		acquiredAt = e.Now()
	}
	e.At(1, stalled)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt != 500 {
		t.Fatalf("stalled allocation at %d, want 500", acquiredAt)
	}
}

func TestUnmapReleaseFrameTwoPhase(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 2, 1)
	f.Alloc(1)
	f.Alloc(2)
	f.Unmap(1)
	// Frame not yet free: the page data still occupies it until the disk
	// ACKs (or the ring takes it).
	if f.Free() != 0 {
		t.Fatalf("free %d after Unmap, want 0", f.Free())
	}
	if f.Contains(1) {
		t.Fatal("page still present after Unmap")
	}
	f.ReleaseFrame()
	if f.Free() != 1 {
		t.Fatalf("free %d after ReleaseFrame, want 1", f.Free())
	}
}

func TestOverReleasePanics(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.ReleaseFrame()
}

func TestDoubleAllocPanics(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 1)
	f.Alloc(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Alloc(5)
}

func TestAllocWithoutFreePanics(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 2, 1)
	f.Alloc(1)
	f.Alloc(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Alloc(3)
}

func TestBadMinFreePanics(t *testing.T) {
	e := sim.New()
	for _, mf := range []int{0, 4, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("minFree %d accepted", mf)
				}
			}()
			NewFramePool(e, 0, 4, mf)
		}()
	}
}

func TestFrameConservationProperty(t *testing.T) {
	// Property: free + resident + detached == total at all times, for any
	// interleaving of alloc/remove/unmap+release.
	f := func(ops []uint8) bool {
		e := sim.New()
		pool := NewFramePool(e, 0, 8, 2)
		detached := 0
		next := PageID(0)
		var live []PageID
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if pool.HasFree() {
					pool.Alloc(next)
					live = append(live, next)
					next++
				}
			case 1:
				if len(live) > 0 {
					pool.Remove(live[0])
					live = live[1:]
				}
			case 2:
				if len(live) > 0 {
					pool.Unmap(live[0])
					live = live[1:]
					detached++
				}
			}
			if pool.Free()+pool.Resident()+detached != pool.Total() {
				return false
			}
		}
		for ; detached > 0; detached-- {
			pool.ReleaseFrame()
		}
		return pool.Free()+pool.Resident() == pool.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnreserveReturnsFrame(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 1)
	f.Reserve()
	if f.Free() != 3 {
		t.Fatalf("free %d after reserve", f.Free())
	}
	f.Unreserve()
	if f.Free() != 4 {
		t.Fatalf("free %d after unreserve", f.Free())
	}
}

func TestUnreserveWithoutReservationPanics(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Unreserve()
}

func TestUnreserveWakesNoFreeStall(t *testing.T) {
	e := sim.New()
	f := NewFramePool(e, 0, 2, 1)
	var wokenAt sim.Time
	e.At(0, func() {
		f.Reserve()
		f.Reserve()
		e.At(e.Now()+100, f.Unreserve)
	})
	var stalled func()
	stalled = func() {
		if !f.HasFree() {
			f.FrameFreed.WaitThen(stalled)
			return
		}
		wokenAt = e.Now()
	}
	e.At(1, stalled)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 100 {
		t.Fatalf("woken at %d, want 100", wokenAt)
	}
}

// Entries live in chunks that never move: an *Entry taken before the
// table grows (past its presized footprint and past a chunk) still names
// the same page, with its lock and wait queue intact.
func TestTableEntriesStableAcrossGrowth(t *testing.T) {
	e := sim.New()
	tb := NewTable(e)
	tb.Presize(4)
	first := tb.Get(0)
	if !first.Lock.TryLock() {
		t.Fatal("fresh entry lock not free")
	}
	for pg := PageID(1); pg < 3*tableChunk; pg++ {
		tb.Get(pg)
	}
	if tb.Get(0) != first || first.Page != 0 {
		t.Fatal("entry moved or was overwritten as the table grew")
	}
	if first.Lock.TryLock() {
		t.Fatal("entry lock state lost as the table grew")
	}
	first.Lock.Unlock()
	if tb.Len() != 3*tableChunk {
		t.Fatalf("len %d, want %d", tb.Len(), 3*tableChunk)
	}
}

// Once presized from the footprint, creating an entry allocates nothing:
// the entry, its lock and its wait queue come from the presized chunk.
func TestTableGetPresizedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	e := sim.New()
	tb := NewTable(e)
	const pages = 1000
	tb.Presize(pages)
	next := PageID(0)
	avg := testing.AllocsPerRun(pages-1, func() {
		tb.Get(next)
		next++
	})
	if avg != 0 {
		t.Fatalf("Get allocates %v per new entry after Presize, want 0", avg)
	}
}
