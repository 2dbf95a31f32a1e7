package mesh

import (
	"testing"

	"nwcache/internal/param"
	"nwcache/internal/sim"
)

// TestTransitZeroAlloc pins the allocation-free property of the per-message
// hot path: routed transfers reserve the precomputed link chain directly.
func TestTransitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inserts allocations")
	}
	e := sim.New()
	cfg := param.Default()
	m := New(e, cfg)
	now := sim.Time(0)
	if avg := testing.AllocsPerRun(500, func() {
		now = m.Transit(now, 0, 7, cfg.PageSize)
	}); avg != 0 {
		t.Fatalf("Transit allocates %.2f/op", avg)
	}
}

// TestAppendPathStagesZeroAlloc pins the caller-buffer variant: once the
// caller's scratch has grown to the longest route, staging is free.
func TestAppendPathStagesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inserts allocations")
	}
	e := sim.New()
	cfg := param.Default()
	m := New(e, cfg)
	buf := make([]sim.Stage, 0, 16)
	if avg := testing.AllocsPerRun(500, func() {
		stages := m.AppendPathStages(buf[:0], 0, 7, cfg.PageSize)
		if len(stages) == 0 {
			t.Fatal("empty route")
		}
	}); avg != 0 {
		t.Fatalf("AppendPathStages allocates %.2f/op", avg)
	}
}

// TestAppendPathStagesMatchesRoute checks the staging against the XY
// route for every node pair: injection port, each link, ejection port.
func TestAppendPathStagesMatchesRoute(t *testing.T) {
	e := sim.New()
	cfg := param.Default()
	m := New(e, cfg)
	occupy := param.TransferPcycles(int64(cfg.PageSize), cfg.NetMBs)
	for src := 0; src < cfg.Nodes; src++ {
		for dst := 0; dst < cfg.Nodes; dst++ {
			want := []*sim.Resource{m.inject[src]}
			for _, h := range m.route(src, dst, false) {
				want = append(want, m.links[h/int(numDirs)][h%int(numDirs)])
			}
			want = append(want, m.eject[dst])
			got := m.AppendPathStages(nil, src, dst, cfg.PageSize)
			if len(got) != len(want) {
				t.Fatalf("%d->%d: %d stages, want %d", src, dst, len(got), len(want))
			}
			for i := range got {
				if got[i] != (sim.Stage{Res: want[i], Occupy: occupy, Forward: m.hopLat}) {
					t.Fatalf("%d->%d stage %d: %+v, want resource %v", src, dst, i, got[i], want[i])
				}
			}
		}
	}
}
