package param

import (
	"testing"
	"testing/quick"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes != 8 || c.IONodes != 4 {
		t.Fatalf("nodes %d io %d", c.Nodes, c.IONodes)
	}
	if c.FramesPerNode() != 64 {
		t.Fatalf("frames per node %d, want 64 (256KB/4KB)", c.FramesPerNode())
	}
	if c.RingSlotsPerChannel() != 16 {
		t.Fatalf("ring slots %d, want 16 (64KB/4KB)", c.RingSlotsPerChannel())
	}
	if c.DiskCacheSlots() != 4 {
		t.Fatalf("disk cache slots %d, want 4 (16KB/4KB)", c.DiskCacheSlots())
	}
	if c.RingRoundTrip != 10400 {
		t.Fatalf("ring round trip %d pcycles, want 10400 (52us)", c.RingRoundTrip)
	}
	// Total ring storage = 8 channels x 64KB = 512KB per Table 1.
	if c.RingChannels*c.RingChanBytes != 512*1024 {
		t.Fatalf("ring storage %d, want 512KB", c.RingChannels*c.RingChanBytes)
	}
}

func TestTransferTimesMatchTable1Rates(t *testing.T) {
	c := Default()
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"memory bus 4KB @800MB/s", c.PageMemBusTime(), 1024},
		{"I/O bus 4KB @300MB/s", c.PageIOBusTime(), 2731},
		{"net link 4KB @200MB/s", TransferPcycles(int64(c.PageSize), c.NetMBs), 4096},
		{"disk 4KB @20MB/s", c.PageDiskTime(), 40960},
		{"ring 4KB @1250MB/s", c.PageRingTime(), 656},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: %d pcycles, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestSeekRotationInPcycles(t *testing.T) {
	c := Default()
	if c.MinSeek != 400_000 || c.MaxSeek != 4_400_000 {
		t.Fatalf("seek [%d,%d], want [400000,4400000]", c.MinSeek, c.MaxSeek)
	}
	if c.RotLatency != 800_000 {
		t.Fatalf("rotation %d, want 800000", c.RotLatency)
	}
}

func TestTransferPcyclesEdges(t *testing.T) {
	if TransferPcycles(0, 100) != 0 {
		t.Fatal("zero bytes should cost 0")
	}
	if TransferPcycles(-5, 100) != 0 {
		t.Fatal("negative bytes should cost 0")
	}
	if got := TransferPcycles(1, 800); got != 1 {
		t.Fatalf("1 byte @800MB/s = %d, want 1 (rounded up from 0.25)", got)
	}
}

func TestTransferPcyclesMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferPcycles(x, 200) <= TransferPcycles(y, 200)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"io > nodes", func(c *Config) { c.IONodes = 99 }},
		{"mesh mismatch", func(c *Config) { c.MeshW = 3 }},
		{"non-pow2 page", func(c *Config) { c.PageSize = 3000 }},
		{"tiny memory", func(c *Config) { c.MemPerNode = 100 }},
		{"zero minfree", func(c *Config) { c.MinFreeFrames = 0 }},
		{"minfree >= frames", func(c *Config) { c.MinFreeFrames = c.FramesPerNode() }},
		{"too few channels", func(c *Config) { c.RingChannels = 1 }},
		{"tiny channel", func(c *Config) { c.RingChanBytes = 1 }},
		{"tiny disk cache", func(c *Config) { c.DiskCacheBytes = 1 }},
		{"inverted seek", func(c *Config) { c.MaxSeek = c.MinSeek - 1 }},
		{"zero stripe", func(c *Config) { c.StripeGroup = 0 }},
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"zero TLB", func(c *Config) { c.TLBEntries = 0 }},
		{"negative TLB", func(c *Config) { c.TLBEntries = -1 }},
		{"TLB over slot limit", func(c *Config) { c.TLBEntries = 1 << 16 }},
		{"zero L2", func(c *Config) { c.L2SubBlocks = 0 }},
		{"negative L2", func(c *Config) { c.L2SubBlocks = -1 }},
		{"L2 over slot limit", func(c *Config) { c.L2SubBlocks = 1 << 16 }},
		{"frames over slot limit", func(c *Config) { c.MemPerNode = (1 << 16) * c.PageSize }},
	}
	for _, m := range mods {
		c := Default()
		m.mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

// TestValidateAcceptsSlotLimits pins both ends of the cache-size range:
// one slot and the largest count a uint16 slot index holds. (A node needs
// at least two frames, as MinFreeFrames must stay below the frame count.)
func TestValidateAcceptsSlotLimits(t *testing.T) {
	for _, n := range []int{1, 1<<16 - 1} {
		c := Default()
		c.TLBEntries = n
		c.L2SubBlocks = n
		if err := c.Validate(); err != nil {
			t.Errorf("cache size %d: %v", n, err)
		}
	}
	c := Default()
	c.MemPerNode = (1<<16 - 1) * c.PageSize
	if err := c.Validate(); err != nil {
		t.Errorf("frames %d: %v", c.FramesPerNode(), err)
	}
}
