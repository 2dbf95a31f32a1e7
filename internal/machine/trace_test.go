package machine

import (
	"reflect"
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/obs"
)

// tracedProg runs both CPUs over the same dirty pages (transit waits),
// re-reads them newest first (ring and disk faults) and reads a clean
// range (clean evictions), all on 16 frames.
func tracedProg() Program {
	return &testProg{name: "traced", pages: 96, fn: func(ctx *Ctx, proc int) {
		for pg := PageID(0); pg < 48; pg++ {
			ctx.Write(pg, 0, 16)
		}
		for pg := PageID(47); pg >= 0; pg-- {
			ctx.Read(pg, 0, 16)
		}
		for pg := PageID(48); pg < 96; pg++ {
			ctx.Read(pg, 0, 16)
		}
	}}
}

// A span trace only records: the traced run's Result deep-equals the
// untraced one, and each record count equals the node counter it mirrors.
func TestTracingNeverSteersTheRun(t *testing.T) {
	for _, kind := range []Kind{Standard, NWCache} {
		plain := runProg(t, smallCfg(), kind, disk.Optimal, tracedProg())
		m, err := New(smallCfg(), kind, disk.Optimal)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace(0)
		m.Observe(nil, tr)
		res, err := m.Run(tracedProg())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, res) {
			t.Fatalf("%s: traced result differs:\n got %+v\nwant %+v", kind, res, plain)
		}
		n := make(map[string]uint64)
		for _, s := range tr.Spans() {
			n[s.Name]++
		}
		for _, in := range tr.Instants() {
			n[in.Name]++
		}
		if res.SwapOuts == 0 || res.CleanEvicts == 0 || res.DiskHits+res.DiskMisses == 0 || n["fault.wait"] == 0 {
			t.Fatalf("%s: run not pressured enough: %+v, records %v", kind, res, n)
		}
		if kind == NWCache && res.RingHits == 0 {
			t.Fatalf("%s: no ring hits", kind)
		}
		for _, c := range []struct {
			rec  string
			got  uint64
			want uint64
		}{
			{"fault.ring", n["fault.ring"], res.RingHits},
			{"fault.disk", n["fault.disk"], res.DiskHits + res.DiskMisses},
			{"clean.evict", n["clean.evict"], res.CleanEvicts},
			{"swap.*", n["swap.ring"] + n["swap.disk"], res.SwapOuts},
			{"ring.insert", n["ring.insert"], n["ring.release"]},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s records %d, want %d", kind, c.rec, c.got, c.want)
			}
		}
	}
}
