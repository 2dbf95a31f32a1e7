package machine

import (
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/obs"
	"nwcache/internal/stats"
	"nwcache/internal/vm"
)

// A CPU that finds its page in transit waits for it, and the wait is
// charged to what the page was doing when the wait began: Transit behind
// another node's fetch, Fault behind a swap-out.
//
// Page 5 starts out held in transit by a swap-out (TransitBy -1) that
// ends at swapEnd, leaving the page on disk. Both CPUs wait behind it.
// The swap-out's broadcast wakes CPU 0 first, which faults the page in
// from disk at once (TransitBy 0), before CPU 1's wake runs in the same
// instant. CPU 1 must still charge its first wait to Fault, and then
// waits again, behind CPU 0's fetch, charged to Transit.
func TestTransitWaitCategoryFixedWhenWaitBegins(t *testing.T) {
	const page, swapEnd = 5, 40_000
	m, err := New(smallCfg(), Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	m.Observe(nil, tr)
	// The swap-out holds the entry lock only for instants no CPU
	// contends, so each TryLock takes it.
	en := m.Table.Get(page)
	m.E.At(0, func() {
		en.Lock.TryLock()
		en.State, en.TransitBy, en.Owner = vm.Transit, -1, -1
		en.Lock.Unlock()
	})
	m.E.At(swapEnd, func() {
		en.Lock.TryLock()
		en.State = vm.Unmapped
		en.Arrived.Broadcast()
		en.Lock.Unlock()
	})
	_, err = m.Run(&testProg{name: "transit", pages: 8, fn: func(ctx *Ctx, proc int) {
		ctx.Compute(int64(1000 * (proc + 1)))
		ctx.Read(page, 0, 1)
		ctx.Barrier()
	}})
	if err != nil {
		t.Fatal(err)
	}
	waits := map[int][]obs.Span{}
	for _, s := range tr.Spans() {
		if s.Name == "fault.wait" {
			waits[s.Track] = append(waits[s.Track], s)
		}
	}
	if len(waits[0]) != 1 || len(waits[1]) != 2 {
		t.Fatalf("fault.wait spans: cpu0 %v, cpu1 %v; want one and two", waits[0], waits[1])
	}
	for cpu := 0; cpu < 2; cpu++ {
		if w := waits[cpu][0]; w.End != swapEnd || w.Page != page {
			t.Fatalf("cpu%d's swap-out wait %+v, want one ending at %d on page %d", cpu, w, swapEnd, page)
		}
	}
	behindSwap := waits[1][0].End - waits[1][0].Start
	behindFetch := waits[1][1]
	if behindFetch.Start != swapEnd || behindFetch.End <= swapEnd {
		t.Fatalf("cpu1's fetch wait %+v, want one starting at %d", behindFetch, swapEnd)
	}
	cpu0, cpu1 := &m.Nodes[0].CPU, &m.Nodes[1].CPU
	if got := cpu0.T[stats.Transit]; got != 0 {
		t.Errorf("cpu0 Transit = %d, want 0 (it only waited behind the swap-out)", got)
	}
	if got, want := cpu1.T[stats.Transit], behindFetch.End-behindFetch.Start; got != want {
		t.Errorf("cpu1 Transit = %d, want %d (its wait behind cpu0's fetch)", got, want)
	}
	if got := cpu1.T[stats.Fault]; got < behindSwap {
		t.Errorf("cpu1 Fault = %d, want at least its %d-cycle wait behind the swap-out", got, behindSwap)
	}
}
