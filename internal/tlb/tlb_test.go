package tlb

import (
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	tb := New(4)
	if tb.Lookup(7) {
		t.Fatal("cold lookup hit")
	}
	if !tb.Lookup(7) {
		t.Fatal("second lookup missed")
	}
	if tb.Hits != 1 || tb.Misses != 1 {
		t.Fatalf("hits %d misses %d", tb.Hits, tb.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	tb := New(2)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Lookup(1) // 1 most recent; 2 is LRU
	tb.Lookup(3) // evicts 2
	if !tb.Contains(1) {
		t.Fatal("1 evicted although most recent")
	}
	if tb.Contains(2) {
		t.Fatal("2 not evicted although LRU")
	}
	if !tb.Contains(3) {
		t.Fatal("3 missing")
	}
}

func TestInvalidate(t *testing.T) {
	tb := New(4)
	tb.Lookup(9)
	if !tb.Invalidate(9) {
		t.Fatal("invalidate of present entry returned false")
	}
	if tb.Invalidate(9) {
		t.Fatal("double invalidate returned true")
	}
	if tb.Contains(9) {
		t.Fatal("entry survived invalidate")
	}
}

func TestFlush(t *testing.T) {
	tb := New(8)
	for p := int64(0); p < 8; p++ {
		tb.Lookup(p)
	}
	tb.Flush()
	if tb.Len() != 0 {
		t.Fatalf("len %d after flush", tb.Len())
	}
}

func TestContainsDoesNotPerturbLRU(t *testing.T) {
	tb := New(2)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Contains(1) // must NOT refresh 1
	tb.Lookup(3)   // evicts 1 (true LRU)
	if tb.Contains(1) {
		t.Fatal("Contains refreshed LRU position")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// Pages are non-negative: vm.Table and vm.FramePool panic on a negative
// page, so the machine never looks one up (TestNegativePagePanics).
func TestCapacityNeverExceededProperty(t *testing.T) {
	f := func(pages []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		tb := New(capacity)
		for _, p := range pages {
			tb.Lookup(int64(p))
			if tb.Len() > capacity {
				return false
			}
		}
		return tb.Hits+tb.Misses == uint64(len(pages))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativePagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup(-1) did not panic")
		}
	}()
	New(4).Lookup(-1)
}
