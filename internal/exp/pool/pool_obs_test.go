package pool

import (
	"testing"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
)

// waitIdle blocks until every submitted cell's completion bookkeeping
// (LRU entry, in-flight decrement) has run — Wait returns on the done
// channel, which closes just before the accounting defer.
func waitIdle(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for depth(p) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never went idle: queue_depth = %d", depth(p))
		}
		time.Sleep(time.Millisecond)
	}
}

// depth reads the pool's queue_depth probe.
func depth(p *Pool) int64 {
	reg := obs.NewRegistry()
	p.Observe(reg.Root())
	mv, _ := reg.Snapshot().Get("queue_depth")
	return mv.Value
}

func TestQueueDepthTracksInFlight(t *testing.T) {
	p := New(1)
	// Each cell holds in its Obs hook until release, so none can finish
	// and leave the in-flight count before the checks below run.
	release := make(chan struct{})
	held := func(i int) core.Cell {
		c := cell("sor", core.Standard, core.Naive)
		c.Cfg.Seed = int64(i + 100)
		c.Obs = func(core.Cell, *machine.Machine) { <-release }
		return c
	}
	var futs []*Future
	for i := 0; i < 3; i++ {
		f, fresh := p.Submit(held(i))
		if !fresh {
			t.Fatalf("cell %d not fresh", i)
		}
		futs = append(futs, f)
	}
	// The in-flight count is bumped synchronously in Submit, so with one
	// worker and nothing collected yet all three cells are pending.
	if got := depth(p); got != 3 {
		t.Fatalf("queue_depth = %d, want 3", got)
	}
	// A memo hit is not a fresh submission and must not bump the depth.
	p.Submit(held(0))
	if got := depth(p); got != 3 {
		t.Fatalf("queue_depth after memo hit = %d, want 3", got)
	}
	close(release)
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, p)
}

// TestObserveProbesPinCounters drives every accounting path — fresh
// run, memo hit, LRU evict — and pins the exact probe values a snapshot
// reports.
func TestObserveProbesPinCounters(t *testing.T) {
	p := New(1)
	p.limit = 2
	reg := obs.NewRegistry()
	p.Observe(reg.Root().Scope("pool"))

	for _, c := range []core.Cell{
		badCell(0), // fresh run
		badCell(0), // memo hit
		badCell(1), // fresh run
		badCell(2), // fresh run; memo limit 2 -> 1 eviction
		badCell(3), // fresh run; 2 evictions
	} {
		f, _ := p.Submit(c)
		f.Wait()
	}
	waitIdle(t, p)

	snap := reg.Snapshot()
	want := map[string]int64{
		"pool.runs":        4,
		"pool.hits":        1,
		"pool.evicts":      2,
		"pool.hit_pct":     20, // 1 hit of 5 submissions
		"pool.queue_depth": 0,
		"pool.memo_len":    2,
	}
	for name, v := range want {
		mv, ok := snap.Get(name)
		if !ok {
			t.Fatalf("snapshot missing %s", name)
		}
		if mv.Value != v {
			t.Errorf("%s = %d, want %d", name, mv.Value, v)
		}
	}
	// Kind sanity: cumulative quantities expose as counters, levels as
	// gauges (what the Prometheus exposition's # TYPE lines derive from).
	for name, kind := range map[string]string{
		"pool.runs": "counter", "pool.queue_depth": "gauge", "pool.hit_pct": "gauge",
	} {
		if mv, _ := snap.Get(name); mv.Kind != kind {
			t.Errorf("%s kind = %s, want %s", name, mv.Kind, kind)
		}
	}
	// Observe on a nil scope is a no-op (disabled-mode contract).
	p.Observe(nil)
}
