package disk

import (
	"testing"
	"testing/quick"

	"nwcache/internal/param"
	"nwcache/internal/sim"
)

func newDisk(mode PrefetchMode) (*sim.Engine, *Disk, param.Config) {
	e := sim.New()
	cfg := param.Default()
	d := New(e, "d0", cfg, mode)
	d.NotifyOK = func(node int, page PageID) {}
	return e, d, cfg
}

// read serves one page read on the continuation form from process p,
// parked until the controller has the data.
func read(p *sim.Proc, d *Disk, from int, page PageID, block int64) ReadOutcome {
	r := &ReadReq{From: from, Page: page, Block: block}
	r.Done = func() { p.Engine().Resume(p) }
	if !d.Read(r) {
		p.Park("disk read")
	}
	return r.Outcome
}

// write delivers one swap-out write from process p: the controller's
// booking, then its ACK/NACK answer.
func write(p *sim.Proc, d *Disk, node int, page PageID, block int64) WriteStatus {
	p.SleepUntil(d.BookWrite())
	return d.AnswerWrite(node, page, block)
}

func TestReadMissThenHitNaive(t *testing.T) {
	e, d, _ := newDisk(Naive)
	var first, second ReadOutcome
	e.Spawn("r", func(p *sim.Proc) {
		first = read(p, d, 0, 10, 10)
		second = read(p, d, 0, 10, 10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first.Hit() {
		t.Fatal("cold read hit")
	}
	if second != HitCache {
		t.Fatalf("warm read outcome %v, want HitCache", second)
	}
	if d.Reads != 2 || d.ReadHits != 1 {
		t.Fatalf("reads %d hits %d", d.Reads, d.ReadHits)
	}
}

func TestReadMissTakesMediaTime(t *testing.T) {
	e, d, cfg := newDisk(Naive)
	var took sim.Time
	e.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		read(p, d, 0, 5, 5)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At least min seek + rotation + one transfer.
	min := cfg.MinSeek + cfg.RotLatency + cfg.PageDiskTime()
	if took < min {
		t.Fatalf("miss took %d, want >= %d", took, min)
	}
}

func TestOptimalModeAllReadsHit(t *testing.T) {
	e, d, _ := newDisk(Optimal)
	e.Spawn("r", func(p *sim.Proc) {
		for pg := PageID(0); pg < 50; pg++ {
			if !read(p, d, 0, pg, int64(pg)).Hit() {
				t.Errorf("optimal read of page %d missed", pg)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.MediaReads != 0 {
		t.Fatalf("optimal mode touched media %d times on the request path", d.MediaReads)
	}
}

func TestNaivePrefetchFillsSequentialPages(t *testing.T) {
	e, d, _ := newDisk(Naive)
	var followUp, immediate ReadOutcome
	e.Spawn("r", func(p *sim.Proc) {
		read(p, d, 0, 100, 100)
		// Request the next page while its prefetch is still streaming.
		immediate = read(p, d, 0, 101, 101)
		p.Sleep(10 * param.PcyclesPerMsec) // let the rest finish
		followUp = read(p, d, 0, 102, 102)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if immediate != HitInflight {
		t.Fatalf("read during prefetch: %v, want HitInflight", immediate)
	}
	if followUp != HitCache {
		t.Fatalf("read after prefetch: %v, want HitCache", followUp)
	}
}

func TestWriteACKWhenRoom(t *testing.T) {
	e, d, _ := newDisk(Naive)
	var st WriteStatus
	e.Spawn("w", func(p *sim.Proc) {
		st = write(p, d, 1, 7, 7)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st != ACK {
		t.Fatalf("status %v, want ACK", st)
	}
}

func TestWriteNACKWhenFullOfSwapOutsAndOKFollows(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	d := New(e, "d0", cfg, Naive)
	var oks []PageID
	d.NotifyOK = func(node int, page PageID) { oks = append(oks, page) }
	var statuses []WriteStatus
	e.Spawn("w", func(p *sim.Proc) {
		// Fill all 4 slots plus one extra; use scattered blocks so no
		// combining hides the backlog.
		for i := 0; i < 5; i++ {
			statuses = append(statuses, write(p, d, 2, PageID(i*100), int64(i*100)))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	nacks := 0
	for _, s := range statuses {
		if s == NACK {
			nacks++
		}
	}
	if nacks == 0 {
		t.Fatalf("no NACK despite overflow: %v", statuses)
	}
	if len(oks) != nacks {
		t.Fatalf("%d NACKs but %d OKs", nacks, len(oks))
	}
}

func TestWritesPreferredOverPrefetches(t *testing.T) {
	e, d, _ := newDisk(Naive)
	e.Spawn("x", func(p *sim.Proc) {
		read(p, d, 0, 100, 100) // miss + prefetch fills cache with 101..103
		p.Sleep(10 * param.PcyclesPerMsec)
		// Now the cache is full of clean data; writes must evict it.
		for i := 0; i < 4; i++ {
			if st := write(p, d, 1, PageID(500+i*50), int64(500+i*50)); st != ACK {
				t.Errorf("write %d got %v, want ACK over prefetched data", i, st)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCombiningConsecutiveBlocks(t *testing.T) {
	e, d, _ := newDisk(Naive)
	e.Spawn("w", func(p *sim.Proc) {
		// Four consecutive blocks land in the cache together.
		for i := 0; i < 4; i++ {
			write(p, d, 1, PageID(200+i), int64(200+i))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.MediaWrite != 1 {
		t.Fatalf("media writes %d, want 1 combined access", d.MediaWrite)
	}
	if d.Combining.Value() != 4 {
		t.Fatalf("combining %f, want 4", d.Combining.Value())
	}
}

func TestNoCombiningForScatteredBlocks(t *testing.T) {
	e, d, _ := newDisk(Naive)
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			write(p, d, 1, PageID(i*1000), int64(i*1000))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Combining.Value() != 1 {
		t.Fatalf("combining %f, want 1 for scattered writes", d.Combining.Value())
	}
	if d.MediaWrite != 4 {
		t.Fatalf("media writes %d, want 4", d.MediaWrite)
	}
}

func TestSeekTimeProportionalToDistance(t *testing.T) {
	e, d, cfg := newDisk(Naive)
	_ = e
	d.maxBlockSeen = 1000
	d.headPos = 0
	near := d.seekTime(10)
	far := d.seekTime(1000)
	if near >= far {
		t.Fatalf("seek near %d >= far %d", near, far)
	}
	if near < cfg.MinSeek || far > cfg.MaxSeek {
		t.Fatalf("seeks [%d,%d] outside [%d,%d]", near, far, cfg.MinSeek, cfg.MaxSeek)
	}
}

func TestDirtyOverwriteInCache(t *testing.T) {
	e, d, _ := newDisk(Naive)
	e.Spawn("w", func(p *sim.Proc) {
		write(p, d, 1, 7, 7)
		write(p, d, 1, 7, 7) // overwrite same page: must not consume a second slot
		if d.DirtySlots() > 1 {
			t.Errorf("dirty slots %d after overwrite, want <= 1", d.DirtySlots())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateCleanOnly(t *testing.T) {
	e, d, _ := newDisk(Naive)
	e.Spawn("x", func(p *sim.Proc) {
		read(p, d, 0, 42, 42)
		if !d.Invalidate(42) {
			t.Error("clean page not invalidated")
		}
		write(p, d, 1, 43, 43)
		if d.Invalidate(43) {
			t.Error("dirty page invalidated; its data would be lost")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllWritesEventuallyReachMediaProperty(t *testing.T) {
	// Property: for any batch of distinct pages written with pauses, every
	// ACKed write is eventually covered by media write operations and the
	// cache ends with no dirty slots.
	f := func(pagesRaw []uint8) bool {
		if len(pagesRaw) == 0 {
			return true
		}
		if len(pagesRaw) > 24 {
			pagesRaw = pagesRaw[:24]
		}
		e := sim.New()
		cfg := param.Default()
		d := New(e, "d0", cfg, Naive)
		resend := sim.NewQueue[PageID](e)
		d.NotifyOK = func(node int, page PageID) { resend.Push(page) }
		e.Spawn("w", func(p *sim.Proc) {
			for _, pg := range pagesRaw {
				if write(p, d, 0, PageID(pg), int64(pg)) == NACK {
					// Wait for the OK and resend, as a node would.
					got := resend.Pop(p)
					for write(p, d, 0, got, int64(got)) == NACK {
						got = resend.Pop(p)
					}
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return d.DirtySlots() == 0 && d.MediaWrite > 0
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Naive.String() != "naive" || Optimal.String() != "optimal" {
		t.Fatal("mode strings wrong")
	}
}

func TestStreamedModeDetectsSequentialStream(t *testing.T) {
	e, d, _ := newDisk(Streamed)
	var outcomes []ReadOutcome
	e.Spawn("r", func(p *sim.Proc) {
		// A sequential stream from node 0: first two misses establish the
		// stream, then read-ahead starts covering subsequent blocks.
		for b := int64(10); b < 18; b++ {
			outcomes = append(outcomes, read(p, d, 0, PageID(b), b))
			p.Sleep(100_000) // think time between requests
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, o := range outcomes {
		if o.Hit() {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no hits on a pure sequential stream: %v", outcomes)
	}
}

func TestStreamedModeIgnoresRandomRequester(t *testing.T) {
	e, d, _ := newDisk(Streamed)
	e.Spawn("r", func(p *sim.Proc) {
		// Non-sequential requests must not trigger read-ahead.
		for _, b := range []int64{10, 500, 90, 3000, 42} {
			read(p, d, 0, PageID(b), b)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Every request was a dedicated media read; no prefetch traffic.
	if d.MediaReads != 5 {
		t.Fatalf("media reads %d, want 5", d.MediaReads)
	}
	if len(d.pendingPF) != 0 {
		t.Fatal("random requester triggered read-ahead")
	}
}

func TestStreamedModeTracksStreamsPerNode(t *testing.T) {
	e, d, _ := newDisk(Streamed)
	var n0Hit, n1Hit ReadOutcome
	e.Spawn("r", func(p *sim.Proc) {
		// Node 0 and node 1 run independent sequential streams; stream
		// state is tracked per requester, so node 1's intervening read
		// must not break node 0's stream detection.
		read(p, d, 0, 10, 10)
		read(p, d, 1, 500, 500)
		read(p, d, 0, 11, 11) // node 0 stream confirmed -> read-ahead of 12
		p.Sleep(10 * param.PcyclesPerMsec)
		n0Hit = read(p, d, 0, 12, 12)
		// Now node 1 continues its own stream.
		read(p, d, 1, 501, 501) // node 1 stream confirmed -> read-ahead of 502
		p.Sleep(10 * param.PcyclesPerMsec)
		n1Hit = read(p, d, 1, 502, 502)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !n0Hit.Hit() {
		t.Fatalf("node 0 stream broken by interleaved requester: %v", n0Hit)
	}
	if !n1Hit.Hit() {
		t.Fatalf("node 1 stream not detected: %v", n1Hit)
	}
}

func TestReadPriorityArmServesReadsFirst(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	cfg.DiskReadPriority = true
	d := New(e, "d0", cfg, Naive)
	d.NotifyOK = func(node int, page PageID) {}
	var readDone, firstWBDone sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		// Queue several scattered writes: the write-back daemon grabs the
		// arm. Then issue a read; with priority scheduling it should be
		// served before the remaining write-backs.
		for i := 0; i < 4; i++ {
			write(p, d, 1, PageID(i*1000), int64(i*1000))
		}
		p.Sleep(1000) // let the first write-back start
		read(p, d, 0, 9000, 9000)
		readDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The read completes after at most ~2 media ops (the one in progress +
	// itself), not behind all 4 write-backs.
	firstWBDone = 0
	_ = firstWBDone
	worst := 3 * (cfg.MaxSeek + cfg.RotLatency + 4*cfg.PageDiskTime())
	if readDone > worst {
		t.Fatalf("read finished at %d, want < %d (priority over write-backs)", readDone, worst)
	}
}

func TestStreamedModeString(t *testing.T) {
	if Streamed.String() != "streamed" {
		t.Fatal(Streamed.String())
	}
}

func newDCDDisk() (*sim.Engine, *Disk, param.Config) {
	e := sim.New()
	cfg := param.Default()
	cfg.DCD = true
	d := New(e, "d0", cfg, Naive)
	d.NotifyOK = func(node int, page PageID) {}
	return e, d, cfg
}

func TestDCDAbsorbsScatteredWritesQuickly(t *testing.T) {
	// Scattered writes that would each cost seek+rot on the data disk are
	// absorbed by sequential log writes: the cache frees far sooner, so a
	// burst larger than the cache ACKs with fewer NACKs than without DCD.
	run := func(dcd bool) (nacks uint64, doneAt sim.Time) {
		e := sim.New()
		cfg := param.Default()
		cfg.DCD = dcd
		d := New(e, "d0", cfg, Naive)
		resend := sim.NewQueue[PageID](e)
		d.NotifyOK = func(node int, page PageID) { resend.Push(page) }
		e.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				pg := PageID(i * 997) // scattered
				for write(p, d, 0, pg, int64(pg)) == NACK {
					resend.Pop(p)
				}
			}
			doneAt = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return d.WritesNACK, doneAt
	}
	plainNACKs, plainDone := run(false)
	dcdNACKs, dcdDone := run(true)
	if dcdDone >= plainDone {
		t.Fatalf("DCD writes done at %d, plain at %d; log gave no speedup", dcdDone, plainDone)
	}
	if dcdNACKs > plainNACKs {
		t.Fatalf("DCD NACKs %d > plain %d", dcdNACKs, plainNACKs)
	}
}

func TestDCDLoggedBlocksReadableBeforeDestage(t *testing.T) {
	e, d, _ := newDCDDisk()
	var outcome ReadOutcome
	e.Spawn("x", func(p *sim.Proc) {
		// Write a page, let it destage to the log, evict it from the RAM
		// cache with other traffic, then read it back: the read must be
		// servable (from the log) without corrupting state.
		write(p, d, 0, 7, 7)
		p.Sleep(5 * param.PcyclesPerMsec)
		for i := 0; i < 4; i++ {
			read(p, d, 0, PageID(100+i*50), int64(100+i*50)) // evict page 7 from RAM cache
		}
		if d.find(7) >= 0 {
			t.Error("page 7 still in RAM cache; test premise broken")
		}
		outcome = read(p, d, 0, 7, 7)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome.Hit() {
		t.Fatalf("log read reported as cache hit: %v", outcome)
	}
}

func TestDCDDestagesEventually(t *testing.T) {
	e, d, _ := newDCDDisk()
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			write(p, d, 0, PageID(i*500), int64(i*500))
			p.Sleep(param.PcyclesPerMsec)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !d.HasDCD() {
		t.Fatal("DCD not attached")
	}
	if d.DCDLogged() != 0 {
		t.Fatalf("%d blocks stranded in the log", d.DCDLogged())
	}
	if d.MediaWrite == 0 {
		t.Fatal("no data-disk writes: destage never ran")
	}
}

func TestDCDLogFullBlocksWritebackUntilDestage(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	cfg.DCD = true
	cfg.DCDLogBlocks = 4 // tiny log: fills immediately
	d := New(e, "d0", cfg, Naive)
	resend := sim.NewQueue[PageID](e)
	d.NotifyOK = func(node int, page PageID) { resend.Push(page) }
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			pg := PageID(i * 777)
			for write(p, d, 0, pg, int64(pg)) == NACK {
				resend.Pop(p)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.DCDLogged() != 0 {
		t.Fatalf("%d blocks stranded in the log", d.DCDLogged())
	}
	if d.DirtySlots() != 0 {
		t.Fatal("dirty slots left")
	}
	if d.MediaWrite == 0 {
		t.Fatal("nothing destaged to the data disk")
	}
}

func TestReadPriorityDiskStillDrainsWrites(t *testing.T) {
	// With read priority and a continuous read stream, write-backs starve
	// while reads flow but must complete once the stream ends.
	e := sim.New()
	cfg := param.Default()
	cfg.DiskReadPriority = true
	d := New(e, "d0", cfg, Naive)
	d.NotifyOK = func(node int, page PageID) {}
	e.Spawn("x", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			write(p, d, 0, PageID(i*333), int64(i*333))
		}
		for i := 0; i < 6; i++ {
			read(p, d, 0, PageID(9000+i*111), int64(9000+i*111))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.DirtySlots() != 0 {
		t.Fatalf("%d dirty slots never written back", d.DirtySlots())
	}
}
