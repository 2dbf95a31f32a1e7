package optical

import (
	"testing"
	"testing/quick"

	"nwcache/internal/param"
	"nwcache/internal/sim"
)

func newRing() (*sim.Engine, *Ring, param.Config) {
	e := sim.New()
	cfg := param.Default()
	return e, New(e, cfg), cfg
}

func TestChannelCapacity(t *testing.T) {
	_, r, cfg := newRing()
	ch := r.Channel(r.owned[0][0])
	for i := 0; i < cfg.RingSlotsPerChannel(); i++ {
		if !ch.HasRoom() {
			t.Fatalf("channel full after %d inserts, capacity %d", i, cfg.RingSlotsPerChannel())
		}
		r.Insert(0, PageID(i))
	}
	if ch.HasRoom() {
		t.Fatal("channel reports room past capacity")
	}
}

func TestInsertOverflowPanics(t *testing.T) {
	_, r, cfg := newRing()
	for i := 0; i < cfg.RingSlotsPerChannel(); i++ {
		r.Insert(0, PageID(i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Insert(0, 999)
}

func TestReleaseFreesSlot(t *testing.T) {
	_, r, _ := newRing()
	en := r.Insert(3, 42)
	if r.Channel(r.owned[3][0]).Used() != 1 {
		t.Fatal("used != 1")
	}
	r.Release(en)
	if r.Channel(r.owned[3][0]).Used() != 0 {
		t.Fatal("slot not freed")
	}
	r.Release(en) // idempotent
	if en.State != Gone {
		t.Fatal("state not Gone")
	}
}

func TestFindOnChannel(t *testing.T) {
	_, r, _ := newRing()
	en := r.Insert(2, 77)
	if r.FindOnChannel(2, 77) != en {
		t.Fatal("live entry not found")
	}
	if r.FindOnChannel(2, 78) != nil {
		t.Fatal("phantom entry found")
	}
	r.Release(en)
	if r.FindOnChannel(2, 77) != nil {
		t.Fatal("released entry still found")
	}
}

func TestNextPassAtInsertionPoint(t *testing.T) {
	_, r, _ := newRing()
	en := r.Insert(0, 1)
	// Reader co-located with writer: first pass at insertion time, then
	// every round trip.
	if got := r.NextPass(en, 0, en.InsertedAt); got != en.InsertedAt {
		t.Fatalf("first pass %d, want %d", got, en.InsertedAt)
	}
	later := en.InsertedAt + 1
	if got := r.NextPass(en, 0, later); got != en.InsertedAt+r.roundTrip {
		t.Fatalf("second pass %d, want %d", got, en.InsertedAt+r.roundTrip)
	}
}

func TestNextPassOffsetByRingDistance(t *testing.T) {
	_, r, cfg := newRing()
	en := r.Insert(0, 1)
	// Node 4 is half way around an 8-node ring.
	want := en.InsertedAt + cfg.RingRoundTrip/2
	if got := r.NextPass(en, 4, en.InsertedAt); got != want {
		t.Fatalf("pass at node 4: %d, want %d", got, want)
	}
	// Wrap-around: from node 4's channel to node 0 is also half a ring.
	en2 := r.Insert(4, 2)
	if got := r.NextPass(en2, 0, en2.InsertedAt); got != en2.InsertedAt+cfg.RingRoundTrip/2 {
		t.Fatalf("wrap pass %d", got)
	}
}

func TestSnoopSleepsUntilPassPlusTransfer(t *testing.T) {
	e, r, cfg := newRing()
	var done sim.Time
	e.At(0, func() {
		en := r.Insert(0, 9)
		en.State = Claimed
		// Node 2 is 2/8 of the ring away.
		e.At(r.SnoopDone(en, 2, e.Now()), func() { done = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := cfg.RingRoundTrip*2/8 + cfg.PageRingTime()
	if done != want {
		t.Fatalf("snoop finished at %d, want %d", done, want)
	}
}

func TestNextPassNeverBeforeNowProperty(t *testing.T) {
	f := func(chRaw, rdRaw uint8, insRaw, nowRaw uint16) bool {
		e := sim.New()
		cfg := param.Default()
		r := New(e, cfg)
		chn := int(chRaw) % cfg.Nodes
		rd := int(rdRaw) % cfg.Nodes
		en := &Entry{Page: 1, Channel: chn, InsertedAt: sim.Time(insRaw)}
		now := en.InsertedAt + sim.Time(nowRaw)
		pass := r.NextPass(en, rd, now)
		if pass < now {
			return false
		}
		// And it is at most one round trip away.
		return pass-now <= cfg.RingRoundTrip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalUsedAndPeak(t *testing.T) {
	_, r, _ := newRing()
	e1 := r.Insert(0, 1)
	r.Insert(1, 2)
	if r.TotalUsed() != 2 || r.PeakUsed != 2 {
		t.Fatalf("used %d peak %d", r.TotalUsed(), r.PeakUsed)
	}
	r.Release(e1)
	if r.TotalUsed() != 1 {
		t.Fatal("release not reflected")
	}
	if r.PeakUsed != 2 {
		t.Fatal("peak must not shrink")
	}
}

func TestCapacityIndependentOfMemorySizes(t *testing.T) {
	// The paper stresses ring capacity = channels x per-channel storage,
	// independent of node memory. Changing MemPerNode must not change ring
	// capacity.
	e := sim.New()
	cfg := param.Default()
	cfg.MemPerNode = 1024 * 1024
	r := New(e, cfg)
	total := 0
	for i := 0; i < r.Channels(); i++ {
		total += r.Channel(i).slots
	}
	if total*cfg.PageSize != 512*1024 {
		t.Fatalf("ring capacity %d bytes, want 512KB", total*cfg.PageSize)
	}
}

func TestMultiChannelOTDMExtension(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	cfg.RingChannels = 16 // two channels per node
	r := New(e, cfg)
	if r.Channels() != 16 {
		t.Fatalf("channels %d", r.Channels())
	}
	owned := r.owned[3]
	if len(owned) != 2 {
		t.Fatalf("node 3 owns %v, want 2 channels", owned)
	}
	for _, ch := range owned {
		if r.OwnerOf(ch) != 3 {
			t.Fatalf("channel %d owner %d", ch, r.OwnerOf(ch))
		}
	}
	// Capacity doubles: a node can hold 2x slots before running out.
	slots := cfg.RingSlotsPerChannel()
	for i := 0; i < 2*slots; i++ {
		if !r.HasRoomFor(3) {
			t.Fatalf("node 3 out of room after %d inserts, want %d", i, 2*slots)
		}
		r.Insert(3, PageID(i))
	}
	if r.HasRoomFor(3) {
		t.Fatal("room reported past double capacity")
	}
	// Another node's capacity is unaffected.
	if !r.HasRoomFor(4) {
		t.Fatal("node 4 starved by node 3's inserts")
	}
}

func TestMultiChannelFindAcrossOwnedChannels(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	cfg.RingChannels = 16
	r := New(e, cfg)
	slots := cfg.RingSlotsPerChannel()
	// Fill the first channel so the next insert goes to the second.
	for i := 0; i < slots; i++ {
		r.Insert(2, PageID(i))
	}
	en := r.Insert(2, 999) // lands on second owned channel
	if en.Channel == r.owned[2][0] {
		t.Fatal("insert did not spill to the second channel")
	}
	if r.FindOnChannel(2, 999) != en {
		t.Fatal("entry on second channel not found by node lookup")
	}
}

func TestMultiChannelNextPassUsesOwnerPosition(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	cfg.RingChannels = 16
	r := New(e, cfg)
	// Node 0's second channel (index 8) must still behave as if written
	// at node 0's ring position.
	en := r.InsertOn(8, 1)
	want := en.InsertedAt + cfg.RingRoundTrip/2 // node 4 is half way around
	if got := r.NextPass(en, 4, en.InsertedAt); got != want {
		t.Fatalf("pass %d, want %d", got, want)
	}
}

// A released entry is reused by the next insert, and a Ref to its old
// incarnation then reads as Gone: the recycled entry never looks OnRing
// to it.
func TestReleasedEntryReusedBehindRef(t *testing.T) {
	_, r, _ := newRing()
	old := r.Insert(1, 10)
	ref := old.Ref()
	r.Release(old)
	if ref.State() != Gone || ref.Entry() != old {
		t.Fatal("released incarnation should read Gone until reused")
	}
	en := r.Insert(5, 20)
	if en != old {
		t.Fatal("insert did not reuse the released entry")
	}
	if ref.Entry() != nil || ref.State() != Gone || ref.Voided() {
		t.Fatalf("stale ref resolves: state %v", ref.State())
	}
	if ref.Channel() != 1 || en.Ref().Channel() != 5 {
		t.Fatal("a Ref must keep its own incarnation's channel")
	}
	if ref == en.Ref() {
		t.Fatal("refs to two incarnations compare equal")
	}
	if en.Page != 20 || en.State != OnRing || en.Voided {
		t.Fatalf("reused entry not reset: %+v", *en)
	}
}

// A voided entry is retired, not reused, so the conservative swap-out
// holding its Ref still sees Voided however much the ring churns.
func TestVoidedEntryNeverReused(t *testing.T) {
	_, r, _ := newRing()
	en := r.Insert(0, 7)
	ref := en.Ref()
	en.Voided = true
	r.Release(en)
	for i := 0; i < 4; i++ {
		if r.Insert(0, PageID(100+i)) == en {
			t.Fatal("voided entry reused")
		}
	}
	if ref.State() != Gone || !ref.Voided() {
		t.Fatal("voided incarnation lost its Voided mark")
	}
}

// The ring's bookkeeping is allocation-free once its entries exist: an
// Insert/Release round trip reuses the released entry.
func TestInsertReleaseAllocatesNothing(t *testing.T) {
	_, r, _ := newRing()
	r.Release(r.Insert(0, 0))
	page := PageID(1)
	avg := testing.AllocsPerRun(1000, func() {
		r.Release(r.Insert(int(page%8), page))
		page++
	})
	if avg != 0 {
		t.Fatalf("Insert/Release allocates %v per round trip, want 0", avg)
	}
}
