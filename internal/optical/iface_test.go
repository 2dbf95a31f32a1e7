package optical

import (
	"testing"

	"nwcache/internal/param"
	"nwcache/internal/sim"
)

// testDisk is a stub disk cache with a fixed number of slots.
type testDisk struct {
	room      int
	installed []PageID
	iface     *Iface
}

func (d *testDisk) hasRoom() bool  { return d.room > 0 }
func (d *testDisk) book() sim.Time { return d.iface.e.Now() }
func (d *testDisk) install(page PageID) bool {
	if d.room == 0 {
		return false
	}
	d.room--
	d.installed = append(d.installed, page)
	return true
}

func newIfaceHarness(room int) (*sim.Engine, *Ring, *Iface, *testDisk, *[]*Entry) {
	e := sim.New()
	cfg := param.Default()
	r := New(e, cfg)
	f := NewIface(e, r, 0)
	d := &testDisk{room: room, iface: f}
	acks := &[]*Entry{}
	f.DiskHasRoom = d.hasRoom
	f.DiskBook = d.book
	f.DiskInstall = d.install
	f.SendACK = func(en *Entry) {
		*acks = append(*acks, en)
		r.Release(en)
	}
	return e, r, f, d, acks
}

func TestDrainCopiesInSwapOutOrder(t *testing.T) {
	e, r, f, d, acks := newIfaceHarness(10)
	i := 0
	var swap func()
	swap = func() {
		en := r.Insert(1, PageID(100+i))
		f.Notify(en)
		if i++; i < 4 {
			e.After(10, swap)
		}
	}
	e.At(0, swap)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.installed) != 4 {
		t.Fatalf("installed %d pages, want 4", len(d.installed))
	}
	for i, pg := range d.installed {
		if pg != PageID(100+i) {
			t.Fatalf("drain order %v, want FIFO", d.installed)
		}
	}
	if len(*acks) != 4 {
		t.Fatalf("acks %d, want 4", len(*acks))
	}
	if r.TotalUsed() != 0 {
		t.Fatal("ring not emptied after drain")
	}
}

func TestMostLoadedChannelDrainedFirst(t *testing.T) {
	e, r, f, d, _ := newIfaceHarness(10)
	e.At(0, func() {
		// Channel 2 gets one page, channel 5 gets three: channel 5 must be
		// drained first under the MostLoaded policy. Pre-queue everything
		// before the drain loop sees room (insert back-to-back).
		n1 := r.Insert(2, 200)
		n5a := r.Insert(5, 500)
		n5b := r.Insert(5, 501)
		n5c := r.Insert(5, 502)
		f.Notify(n5a)
		f.Notify(n5b)
		f.Notify(n5c)
		f.Notify(n1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.installed) != 4 {
		t.Fatalf("installed %v", d.installed)
	}
	// First three drains come from channel 5.
	for i, want := range []PageID{500, 501, 502, 200} {
		if d.installed[i] != want {
			t.Fatalf("drain order %v, want channel 5 exhausted first", d.installed)
		}
	}
}

func TestRoundRobinPolicyAlternates(t *testing.T) {
	e, r, f, d, _ := newIfaceHarness(10)
	f.Policy = RoundRobin
	e.At(0, func() {
		a0 := r.Insert(1, 10)
		a1 := r.Insert(1, 11)
		b0 := r.Insert(6, 60)
		b1 := r.Insert(6, 61)
		f.Notify(a0)
		f.Notify(a1)
		f.Notify(b0)
		f.Notify(b1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.installed) != 4 {
		t.Fatalf("installed %v", d.installed)
	}
	// Round-robin still exhausts a channel before moving on (the inner
	// loop is shared); but it starts from the lowest channel index rather
	// than the most loaded. Both channels have equal load here, so verify
	// channel 1 drains first.
	if d.installed[0] != 10 {
		t.Fatalf("round robin order %v", d.installed)
	}
}

func TestDrainStopsWhenDiskFull(t *testing.T) {
	e, r, f, d, acks := newIfaceHarness(2)
	var installedAtCheckpoint, pendingAtCheckpoint, acksAtCheckpoint int
	e.At(0, func() {
		for i := 0; i < 4; i++ {
			en := r.Insert(3, PageID(i))
			f.Notify(en)
		}
	})
	// Give the drain loop ample time, then observe it stalled at the
	// disk's capacity.
	e.At(100*r.RoundTrip(), func() {
		installedAtCheckpoint = len(d.installed)
		pendingAtCheckpoint = f.Pending()
		acksAtCheckpoint = len(*acks)
		// Room appears: kicking resumes the drain.
		d.room += 2
		f.Kick()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if installedAtCheckpoint != 2 {
		t.Fatalf("installed %d at checkpoint, want 2 (disk room)", installedAtCheckpoint)
	}
	if pendingAtCheckpoint != 2 {
		t.Fatalf("pending %d at checkpoint, want 2 still queued", pendingAtCheckpoint)
	}
	if acksAtCheckpoint != 2 {
		t.Fatalf("acks %d at checkpoint, want 2", acksAtCheckpoint)
	}
	if len(d.installed) != 4 {
		t.Fatalf("after kick installed %d, want 4", len(d.installed))
	}
}

func TestCancelDropsNoticeAndACKs(t *testing.T) {
	e, r, f, d, acks := newIfaceHarness(0) // no disk room: nothing drains
	e.At(0, func() {
		en := r.Insert(4, 77)
		f.Notify(en)
		e.After(100, func() {
			// Victim read claims the page off the ring.
			en.State = Claimed
			e.At(r.SnoopDone(en, 4, e.Now()), func() { f.Cancel(en) })
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.installed) != 0 {
		t.Fatal("canceled page written to disk")
	}
	if len(*acks) != 1 {
		t.Fatalf("acks %d, want 1 from cancel", len(*acks))
	}
	if f.Pending() != 0 {
		t.Fatal("notice not dropped")
	}
	if r.TotalUsed() != 0 {
		t.Fatal("ring slot not freed after cancel")
	}
}

func TestClaimedEntrySkippedByDrain(t *testing.T) {
	e, r, f, d, acks := newIfaceHarness(10)
	e.At(0, func() {
		en1 := r.Insert(2, 1)
		en2 := r.Insert(2, 2)
		// Claim en1 (victim read in progress) before the drain sees room.
		en1.State = Claimed
		f.Notify(en1)
		f.Notify(en2)
		// Finish the victim read.
		e.After(2*r.RoundTrip(), func() { f.Cancel(en1) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.installed) != 1 || d.installed[0] != 2 {
		t.Fatalf("installed %v, want only page 2", d.installed)
	}
	if len(*acks) != 2 {
		t.Fatalf("acks %d, want 2 (drain + cancel)", len(*acks))
	}
}

func TestDrainRetriesWhenInstallRaces(t *testing.T) {
	// DiskInstall losing the slot race returns false: the notice must be
	// requeued at the FIFO head and retried, never dropped.
	e := sim.New()
	cfg := param.Default()
	r := New(e, cfg)
	f := NewIface(e, r, 0)
	attempts := 0
	installed := []PageID{}
	acks := 0
	f.DiskHasRoom = func() bool { return true }
	f.DiskBook = e.Now
	f.DiskInstall = func(page PageID) bool {
		attempts++
		if attempts <= 2 {
			return false // lose the race twice
		}
		installed = append(installed, page)
		return true
	}
	f.SendACK = func(en *Entry) {
		acks++
		r.Release(en)
	}
	e.At(0, func() {
		en := r.Insert(3, 42)
		f.Notify(en)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts < 3 {
		t.Fatalf("attempts %d, want retries", attempts)
	}
	if len(installed) != 1 || installed[0] != 42 {
		t.Fatalf("installed %v", installed)
	}
	if acks != 1 {
		t.Fatalf("acks %d", acks)
	}
	if r.TotalUsed() != 0 {
		t.Fatal("slot never released")
	}
}

func TestPendingCounts(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	r := New(e, cfg)
	f := NewIface(e, r, 0)
	f.DiskHasRoom = func() bool { return false } // freeze the drain
	f.DiskBook = e.Now
	f.DiskInstall = func(page PageID) bool { return true }
	f.SendACK = func(en *Entry) { r.Release(en) }
	e.At(0, func() {
		f.Notify(r.Insert(1, 10))
		f.Notify(r.Insert(1, 11))
		f.Notify(r.Insert(5, 50))
		if f.PendingOn(1) != 2 || f.PendingOn(5) != 1 || f.Pending() != 3 {
			t.Errorf("pending counts: ch1=%d ch5=%d total=%d",
				f.PendingOn(1), f.PendingOn(5), f.Pending())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
