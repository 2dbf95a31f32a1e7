package pfs

import (
	"testing"
	"testing/quick"

	"nwcache/internal/param"
)

func TestGroupsRoundRobinAcrossDisks(t *testing.T) {
	l := New(param.Default())
	if len(l.ioNodes) != 4 {
		t.Fatalf("disks %d, want 4", len(l.ioNodes))
	}
	// Pages 0..31 on disk 0, 32..63 on disk 1, ..., 128..159 wrap to disk 0.
	for p := int64(0); p < 32; p++ {
		if l.DiskFor(p) != 0 {
			t.Fatalf("page %d on disk %d, want 0", p, l.DiskFor(p))
		}
	}
	if l.DiskFor(32) != 1 || l.DiskFor(64) != 2 || l.DiskFor(96) != 3 {
		t.Fatal("round-robin group assignment wrong")
	}
	if l.DiskFor(128) != 0 {
		t.Fatalf("page 128 on disk %d, want wrap to 0", l.DiskFor(128))
	}
}

func TestConsecutivePagesHaveConsecutiveBlocks(t *testing.T) {
	l := New(param.Default())
	// Within a group, blocks are consecutive — the property write
	// combining relies on.
	for p := int64(0); p < 31; p++ {
		if l.BlockFor(p+1) != l.BlockFor(p)+1 {
			t.Fatalf("blocks for pages %d,%d: %d,%d not consecutive",
				p, p+1, l.BlockFor(p), l.BlockFor(p+1))
		}
	}
}

func TestBlocksUniquePerDisk(t *testing.T) {
	l := New(param.Default())
	seen := map[int]map[int64]int64{} // disk -> block -> page
	for p := int64(0); p < 4096; p++ {
		d := l.DiskFor(p)
		b := l.BlockFor(p)
		if seen[d] == nil {
			seen[d] = map[int64]int64{}
		}
		if prev, dup := seen[d][b]; dup {
			t.Fatalf("pages %d and %d collide on disk %d block %d", prev, p, d, b)
		}
		seen[d][b] = p
	}
}

func TestIONodesSpreadAcrossMachine(t *testing.T) {
	l := New(param.Default())
	nodes := l.IONodes()
	want := []int{0, 2, 4, 6}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("io nodes %v, want %v", nodes, want)
		}
	}
}

func TestNodeForMatchesDiskFor(t *testing.T) {
	l := New(param.Default())
	for p := int64(0); p < 500; p++ {
		if l.NodeFor(p) != l.IONodes()[l.DiskFor(p)] {
			t.Fatalf("NodeFor(%d) inconsistent", p)
		}
	}
}

func TestNegativePagePanics(t *testing.T) {
	l := New(param.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.DiskFor(-1)
}

func TestSingleIONodeLayout(t *testing.T) {
	cfg := param.Default()
	cfg.IONodes = 1
	l := New(cfg)
	for p := int64(0); p < 1000; p++ {
		if l.DiskFor(p) != 0 {
			t.Fatal("single disk must hold everything")
		}
	}
	// Blocks are then simply the page numbers.
	for p := int64(0); p < 1000; p++ {
		if l.BlockFor(p) != p {
			t.Fatalf("block for %d = %d", p, l.BlockFor(p))
		}
	}
}

func TestBlockMappingBijectiveProperty(t *testing.T) {
	// Property: (DiskFor, BlockFor) is injective over pages.
	l := New(param.Default())
	f := func(a, b uint32) bool {
		pa, pb := int64(a), int64(b)
		if pa == pb {
			return true
		}
		return !(l.DiskFor(pa) == l.DiskFor(pb) && l.BlockFor(pa) == l.BlockFor(pb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
