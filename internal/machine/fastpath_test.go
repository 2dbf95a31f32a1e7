package machine

import (
	"testing"

	"nwcache/internal/disk"
)

// wbForBench builds a machine with the write buffer enabled and returns
// node 0's buffer. The engine never runs: tryEnqueue's push and coalesce
// paths are pure bookkeeping (the kick Signal has no waiter yet), so they
// can be driven directly.
func wbForBench(t testing.TB) *writeBuffer {
	cfg := smallCfg()
	cfg.WriteBufferDepth = 8
	m, err := New(cfg, Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	return m.Nodes[0].WB
}

// TestWriteBufferEnqueueZeroAlloc pins the allocation-free property of the
// buffered-write path: the ring of packed keys replaces the former
// queue-append + pending-map layout.
func TestWriteBufferEnqueueZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inserts allocations")
	}
	wb := wbForBench(t)
	if avg := testing.AllocsPerRun(500, func() {
		wb.head, wb.count = 0, 0
		for i := 0; i < wb.depth/2; i++ {
			if c, _ := wb.tryEnqueue(PageID(i), 0); c {
				t.Fatal("fresh key coalesced")
			}
		}
		if c, _ := wb.tryEnqueue(0, 0); !c {
			t.Fatal("repeat key did not coalesce")
		}
	}); avg != 0 {
		t.Fatalf("tryEnqueue allocates %.2f/op", avg)
	}
}

// TestWBKeyRejectsUnpackablePages pins the overflow guard: page numbers
// whose packed block id would overflow int64 must panic, not alias.
func TestWBKeyRejectsUnpackablePages(t *testing.T) {
	if k := wbKey(maxWBPage, 0); k < 0 {
		t.Fatalf("max packable page overflowed to %d", k)
	}
	for _, page := range []PageID{-1, maxWBPage + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("wbKey(%d, 0) did not panic", page)
				}
			}()
			wbKey(page, 0)
		}()
	}
}

// BenchmarkWriteBufferEnqueue measures the tryEnqueue fast path: half fresh
// keys (ring push), half coalescing hits (ring scan).
func BenchmarkWriteBufferEnqueue(b *testing.B) {
	wb := wbForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wb.count >= wb.depth/2 {
			wb.head, wb.count = 0, 0
		}
		wb.tryEnqueue(PageID(i%4), i%2)
	}
}
