package mesh

import (
	"testing"
	"testing/quick"

	"nwcache/internal/param"
	"nwcache/internal/sim"
)

func newTestMesh() (*sim.Engine, *Mesh, param.Config) {
	e := sim.New()
	cfg := param.Default()
	return e, New(e, cfg), cfg
}

func TestRouteLengthMatchesManhattanDistance(t *testing.T) {
	_, m, _ := newTestMesh()
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			route := m.Route(src, dst)
			if len(route) != m.Hops(src, dst) {
				t.Fatalf("route %d->%d has %d hops, want %d",
					src, dst, len(route), m.Hops(src, dst))
			}
		}
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	_, m, _ := newTestMesh()
	if len(m.Route(3, 3)) != 0 {
		t.Fatal("self route not empty")
	}
	if m.Hops(3, 3) != 0 {
		t.Fatal("self hops not 0")
	}
}

func TestRouteOutOfRangePanics(t *testing.T) {
	_, m, _ := newTestMesh()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Route(0, 99)
}

func TestHops4x2Corners(t *testing.T) {
	_, m, _ := newTestMesh()
	// Node 0 = (0,0), node 7 = (3,1): distance 4.
	if h := m.Hops(0, 7); h != 4 {
		t.Fatalf("hops 0->7 = %d, want 4", h)
	}
	if h := m.Hops(0, 3); h != 3 {
		t.Fatalf("hops 0->3 = %d, want 3", h)
	}
	if h := m.Hops(0, 4); h != 1 {
		t.Fatalf("hops 0->4 = %d, want 1", h)
	}
}

func TestTransitUncontendedLatency(t *testing.T) {
	_, m, cfg := newTestMesh()
	// 0 -> 1 is one hop: inject + link + eject pipelined.
	// Cut-through: 2 forward latencies + occupancy.
	occupy := cfg.PageNetTime()
	arrive := m.Transit(0, 0, 1, cfg.PageSize)
	want := 2*cfg.HopLatency + occupy
	if arrive != want {
		t.Fatalf("arrive %d, want %d", arrive, want)
	}
}

func TestTransitLocalDelivery(t *testing.T) {
	_, m, cfg := newTestMesh()
	// src == dst: only NI ports, no links.
	arrive := m.Transit(0, 2, 2, cfg.CtrlMsgLen)
	occupy := param.TransferPcycles(int64(cfg.CtrlMsgLen), cfg.NetMBs)
	want := cfg.HopLatency + occupy
	if arrive != want {
		t.Fatalf("arrive %d, want %d", arrive, want)
	}
}

func TestTransitContentionSerializesSharedLink(t *testing.T) {
	_, m, cfg := newTestMesh()
	a1 := m.Transit(0, 0, 1, cfg.PageSize)
	a2 := m.Transit(0, 0, 1, cfg.PageSize)
	if a2 <= a1 {
		t.Fatalf("second message arrived %d <= first %d despite shared path", a2, a1)
	}
	// Sharing the whole path, the second transfer is delayed by at least
	// one full occupancy.
	if a2-a1 < cfg.PageNetTime() {
		t.Fatalf("second delayed only %d, want >= %d", a2-a1, cfg.PageNetTime())
	}
}

func TestTransitDisjointPathsDoNotInterfere(t *testing.T) {
	_, m, cfg := newTestMesh()
	a1 := m.Transit(0, 0, 1, cfg.PageSize)
	a2 := m.Transit(0, 2, 3, cfg.PageSize) // disjoint links and ports
	if a2 != a1 {
		t.Fatalf("disjoint transfers interfered: %d vs %d", a1, a2)
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, m, cfg := newTestMesh()
	m.Transit(0, 0, 7, cfg.PageSize)
	m.Transit(0, 7, 0, cfg.PageSize)
	if m.Messages != 2 {
		t.Fatalf("messages %d", m.Messages)
	}
	if m.Bytes != int64(2*cfg.PageSize) {
		t.Fatalf("bytes %d", m.Bytes)
	}
	if m.LinkBusy() == 0 {
		t.Fatal("no link busy time recorded")
	}
}

func TestTransitLowerBoundProperty(t *testing.T) {
	// Property: arrival is never earlier than the uncontended cut-through
	// bound, for any src/dst/size.
	f := func(s, d uint8, sz uint16) bool {
		_, m, cfg := newTestMesh()
		src := int(s) % m.Nodes()
		dst := int(d) % m.Nodes()
		bytes := int(sz)%8192 + 1
		occupy := param.TransferPcycles(int64(bytes), cfg.NetMBs)
		bound := int64(m.Hops(src, dst)+1)*cfg.HopLatency + occupy
		return m.Transit(0, src, dst, bytes) >= bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLinkUtilizationNonzeroUnderLoad(t *testing.T) {
	e, m, cfg := newTestMesh()
	for i := 0; i < 10; i++ {
		e.At(sim.Time(10*i), func() { m.Transit(e.Now(), 0, 7, cfg.PageSize) })
	}
	e.At(101, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.MaxLinkUtilization() <= 0 {
		t.Fatal("utilization not tracked")
	}
}
