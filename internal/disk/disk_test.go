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
	d.NotifyOK = func(node int, page PageID, step func()) {}
	return e, d, cfg
}

// step is one step of a test script: it does its work and then calls
// next, at once or from the callback that ends its wait.
type step func(next func())

// script runs steps one after another as a callback chain starting at
// time 0, as the requests of one driver node.
func script(e *sim.Engine, steps ...step) {
	var run func(i int)
	run = func(i int) {
		if i < len(steps) {
			steps[i](func() { run(i + 1) })
		}
	}
	e.At(0, func() { run(0) })
}

// sleep waits d pcycles.
func sleep(e *sim.Engine, d sim.Time) step {
	return func(next func()) { e.After(d, next) }
}

// do runs f and goes on.
func do(f func()) step {
	return func(next func()) {
		f()
		next()
	}
}

// read serves one page read on the continuation form, storing its
// outcome in out (when non-nil). The script goes on once the controller
// has the data: at once when Read serves it synchronously, otherwise
// from Done, the last action of the disk callback that delivers it.
func read(d *Disk, from int, page PageID, block int64, out *ReadOutcome) step {
	return func(next func()) {
		r := &ReadReq{From: from, Page: page, Block: block}
		done := func() {
			if out != nil {
				*out = r.Outcome
			}
			next()
		}
		r.Done = done
		if d.Read(r) {
			done()
		}
	}
}

// write delivers one swap-out write: the controller's booking, then its
// ACK/NACK answer, stored in out (when non-nil).
func write(e *sim.Engine, d *Disk, node int, page PageID, block int64, out *WriteStatus) step {
	return func(next func()) {
		answer := func() {
			st := d.AnswerWrite(node, page, block, nil)
			if out != nil {
				*out = st
			}
			next()
		}
		if t := d.BookWrite(); t > e.Now() {
			e.At(t, answer)
		} else {
			answer()
		}
	}
}

// okQueue collects the pages whose OK arrived, so a script can resend a
// NACKed write once its OK comes, as a node does.
type okQueue struct {
	e     *sim.Engine
	d     *Disk
	pages []PageID
	ok    *sim.Cond
}

func newOKQueue(e *sim.Engine, d *Disk) *okQueue {
	q := &okQueue{e: e, d: d, ok: sim.NewCond(e)}
	d.NotifyOK = func(node int, page PageID, step func()) {
		q.pages = append(q.pages, page)
		q.ok.Signal()
	}
	return q
}

// writeAcked writes page until a write is ACKed: after each NACK it
// waits for the next OK and resends the page that OK names.
func (q *okQueue) writeAcked(node int, page PageID) step {
	return func(next func()) {
		var st WriteStatus
		var try func(pg PageID)
		var pop func()
		try = func(pg PageID) {
			write(q.e, q.d, node, pg, int64(pg), &st)(func() {
				if st == ACK {
					next()
					return
				}
				pop()
			})
		}
		pop = func() {
			if len(q.pages) == 0 {
				q.ok.WaitThen(pop)
				return
			}
			pg := q.pages[0]
			q.pages = q.pages[1:]
			try(pg)
		}
		try(page)
	}
}

func TestReadMissThenHitNaive(t *testing.T) {
	e, d, _ := newDisk(Naive)
	var first, second ReadOutcome
	script(e, read(d, 0, 10, 10, &first), read(d, 0, 10, 10, &second))
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
	script(e, read(d, 0, 5, 5, nil), do(func() { took = e.Now() }))
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
	outcomes := make([]ReadOutcome, 50)
	var steps []step
	for pg := range outcomes {
		steps = append(steps, read(d, 0, PageID(pg), int64(pg), &outcomes[pg]))
	}
	script(e, steps...)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for pg, o := range outcomes {
		if !o.Hit() {
			t.Errorf("optimal read of page %d missed", pg)
		}
	}
	if d.MediaReads != 0 {
		t.Fatalf("optimal mode touched media %d times on the request path", d.MediaReads)
	}
}

func TestNaivePrefetchFillsSequentialPages(t *testing.T) {
	e, d, _ := newDisk(Naive)
	var followUp, immediate ReadOutcome
	script(e,
		read(d, 0, 100, 100, nil),
		// Request the next page while its prefetch is still streaming.
		read(d, 0, 101, 101, &immediate),
		sleep(e, 10*param.PcyclesPerMsec), // let the rest finish
		read(d, 0, 102, 102, &followUp),
	)
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
	script(e, write(e, d, 1, 7, 7, &st))
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
	d.NotifyOK = func(node int, page PageID, step func()) { oks = append(oks, page) }
	// Fill all 4 slots plus one extra; use scattered blocks so no
	// combining hides the backlog.
	statuses := make([]WriteStatus, 5)
	var steps []step
	for i := range statuses {
		steps = append(steps, write(e, d, 2, PageID(i*100), int64(i*100), &statuses[i]))
	}
	script(e, steps...)
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
	statuses := make([]WriteStatus, 4)
	steps := []step{
		read(d, 0, 100, 100, nil), // miss + prefetch fills cache with 101..103
		sleep(e, 10*param.PcyclesPerMsec),
	}
	// Now the cache is full of clean data; writes must evict it.
	for i := range statuses {
		steps = append(steps, write(e, d, 1, PageID(500+i*50), int64(500+i*50), &statuses[i]))
	}
	script(e, steps...)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != ACK {
			t.Errorf("write %d got %v, want ACK over prefetched data", i, st)
		}
	}
}

func TestWriteCombiningConsecutiveBlocks(t *testing.T) {
	e, d, _ := newDisk(Naive)
	// Four consecutive blocks land in the cache together.
	var steps []step
	for i := 0; i < 4; i++ {
		steps = append(steps, write(e, d, 1, PageID(200+i), int64(200+i), nil))
	}
	script(e, steps...)
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
	var steps []step
	for i := 0; i < 4; i++ {
		steps = append(steps, write(e, d, 1, PageID(i*1000), int64(i*1000), nil))
	}
	script(e, steps...)
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
	script(e,
		write(e, d, 1, 7, 7, nil),
		write(e, d, 1, 7, 7, nil), // overwrite same page: must not consume a second slot
		do(func() {
			if d.DirtySlots() > 1 {
				t.Errorf("dirty slots %d after overwrite, want <= 1", d.DirtySlots())
			}
		}),
	)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateCleanOnly(t *testing.T) {
	e, d, _ := newDisk(Naive)
	script(e,
		read(d, 0, 42, 42, nil),
		do(func() {
			if !d.Invalidate(42) {
				t.Error("clean page not invalidated")
			}
		}),
		write(e, d, 1, 43, 43, nil),
		do(func() {
			if d.Invalidate(43) {
				t.Error("dirty page invalidated; its data would be lost")
			}
		}),
	)
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
		// A NACKed write waits for the OK and resends, as a node would.
		oks := newOKQueue(e, d)
		var steps []step
		for _, pg := range pagesRaw {
			steps = append(steps, oks.writeAcked(0, PageID(pg)))
		}
		script(e, steps...)
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
	// A sequential stream from node 0: first two misses establish the
	// stream, then read-ahead starts covering subsequent blocks.
	outcomes = make([]ReadOutcome, 8)
	var steps []step
	for i := range outcomes {
		b := int64(10 + i)
		steps = append(steps, read(d, 0, PageID(b), b, &outcomes[i]),
			sleep(e, 100_000)) // think time between requests
	}
	script(e, steps...)
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
	// Non-sequential requests must not trigger read-ahead.
	var steps []step
	for _, b := range []int64{10, 500, 90, 3000, 42} {
		steps = append(steps, read(d, 0, PageID(b), b, nil))
	}
	script(e, steps...)
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
	// Node 0 and node 1 run independent sequential streams; stream
	// state is tracked per requester, so node 1's intervening read must
	// not break node 0's stream detection.
	script(e,
		read(d, 0, 10, 10, nil),
		read(d, 1, 500, 500, nil),
		read(d, 0, 11, 11, nil), // node 0 stream confirmed -> read-ahead of 12
		sleep(e, 10*param.PcyclesPerMsec),
		read(d, 0, 12, 12, &n0Hit),
		// Now node 1 continues its own stream.
		read(d, 1, 501, 501, nil), // node 1 stream confirmed -> read-ahead of 502
		sleep(e, 10*param.PcyclesPerMsec),
		read(d, 1, 502, 502, &n1Hit),
	)
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
	d.NotifyOK = func(node int, page PageID, step func()) {}
	var readDone, firstWBDone sim.Time
	// Queue several scattered writes: the write-back daemon grabs the
	// arm. Then issue a read; with priority scheduling it should be
	// served before the remaining write-backs.
	var steps []step
	for i := 0; i < 4; i++ {
		steps = append(steps, write(e, d, 1, PageID(i*1000), int64(i*1000), nil))
	}
	script(e, append(steps,
		sleep(e, 1000), // let the first write-back start
		read(d, 0, 9000, 9000, nil),
		do(func() { readDone = e.Now() }),
	)...)
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
	d.NotifyOK = func(node int, page PageID, step func()) {}
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
		oks := newOKQueue(e, d)
		var steps []step
		for i := 0; i < 12; i++ {
			steps = append(steps, oks.writeAcked(0, PageID(i*997))) // scattered
		}
		script(e, append(steps, do(func() { doneAt = e.Now() }))...)
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
	// Write a page, let it destage to the log, evict it from the RAM
	// cache with other traffic, then read it back: the read must be
	// servable (from the log) without corrupting state.
	steps := []step{write(e, d, 0, 7, 7, nil), sleep(e, 5*param.PcyclesPerMsec)}
	for i := 0; i < 4; i++ {
		steps = append(steps, read(d, 0, PageID(100+i*50), int64(100+i*50), nil)) // evict page 7 from RAM cache
	}
	script(e, append(steps,
		do(func() {
			if d.find(7) >= 0 {
				t.Error("page 7 still in RAM cache; test premise broken")
			}
		}),
		read(d, 0, 7, 7, &outcome),
	)...)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome.Hit() {
		t.Fatalf("log read reported as cache hit: %v", outcome)
	}
}

func TestDCDDestagesEventually(t *testing.T) {
	e, d, _ := newDCDDisk()
	var steps []step
	for i := 0; i < 8; i++ {
		steps = append(steps, write(e, d, 0, PageID(i*500), int64(i*500), nil), sleep(e, param.PcyclesPerMsec))
	}
	script(e, steps...)
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
	oks := newOKQueue(e, d)
	var steps []step
	for i := 0; i < 16; i++ {
		steps = append(steps, oks.writeAcked(0, PageID(i*777)))
	}
	script(e, steps...)
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
	d.NotifyOK = func(node int, page PageID, step func()) {}
	var steps []step
	for i := 0; i < 3; i++ {
		steps = append(steps, write(e, d, 0, PageID(i*333), int64(i*333), nil))
	}
	for i := 0; i < 6; i++ {
		steps = append(steps, read(d, 0, PageID(9000+i*111), int64(9000+i*111), nil))
	}
	script(e, steps...)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.DirtySlots() != 0 {
		t.Fatalf("%d dirty slots never written back", d.DirtySlots())
	}
}
