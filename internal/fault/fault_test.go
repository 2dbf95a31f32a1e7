package fault

import (
	"strings"
	"testing"

	"nwcache/internal/obs"
)

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.DiskReadError() || i.DiskWriteError() || i.DrainCorrupted() {
		t.Fatal("nil injector drew a fault")
	}
	if i.RingTxDown(0, 0) || i.HasFlaps() || i.LinkDownUntil(0, DirEast, 0) != 0 {
		t.Fatal("nil injector reports outage/flap")
	}
	if got := i.RemapBlock(0, 9); got != 9 {
		t.Fatalf("nil injector remapped block: %d", got)
	}
	if got := i.DegradeMult(0, 0); got != 1 {
		t.Fatalf("nil injector degraded latency: %d", got)
	}
	if r, b := i.RetrySpec(true); r != 0 || b != 0 {
		t.Fatalf("nil injector retry spec: %d/%d", r, b)
	}
	// Accounting no-ops must not panic.
	i.NoteRetry(1)
	i.NoteGiveUp(true)
	i.NoteOutageFallback()
	i.NoteRingInsert(0)
	i.NoteRingRelease(1, 0)
	i.NoteCrash()
	i.NoteVoided(1, 0)
	i.NoteLost()
	i.NoteRecovered(1)
	i.NoteReroute()
	i.NoteStall()
	i.Observe(nil)
	if i.Plan().String() != "" || i.Seed() != 0 {
		t.Fatal("nil injector has state")
	}
	if s := i.Summary(); s != "faults: disabled" {
		t.Fatalf("nil summary: %q", s)
	}
}

// An attached injector with an empty plan must never touch its PRNG, so a
// fault-free run is bit-identical whether the injector is nil or present.
func TestEmptyPlanDrawsNothing(t *testing.T) {
	a := NewInjector(nil, 42, Aggressive)
	b := NewInjector(&Plan{}, 42, Aggressive)
	for n := 0; n < 1000; n++ {
		if a.DiskReadError() || a.DiskWriteError() || a.DrainCorrupted() {
			t.Fatal("empty plan injected a fault")
		}
	}
	// The streams were never consumed: both rngs still agree with a fresh
	// one on the next draw.
	if a.rng.Int63() != b.rng.Int63() {
		t.Fatal("empty-plan injector consumed PRNG state")
	}
	if a.Stats != (Stats{}) {
		t.Fatalf("empty plan accumulated stats: %+v", a.Stats)
	}
}

func TestDrawDeterminism(t *testing.T) {
	plan, err := Parse("disk read-error rate=0.3\nring corrupt rate=0.2\n")
	if err != nil {
		t.Fatal(err)
	}
	seq := func(seed int64) []bool {
		i := NewInjector(plan, seed, Aggressive)
		var out []bool
		for n := 0; n < 200; n++ {
			out = append(out, i.DiskReadError(), i.DrainCorrupted())
		}
		return out
	}
	a, b := seq(7), seq(7)
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("same seed diverged at draw %d", n)
		}
	}
	c := seq(8)
	same := true
	for n := range a {
		if a[n] != c[n] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 400-draw sequences")
	}
}

func TestRemapBlock(t *testing.T) {
	plan, err := Parse("disk bad-block disk=1 block=100\ndisk bad-block disk=* block=200\n")
	if err != nil {
		t.Fatal(err)
	}
	i := NewInjector(plan, 1, Aggressive)
	if got := i.RemapBlock(0, 100); got != 100 {
		t.Fatalf("bad block on disk 1 remapped on disk 0: %d", got)
	}
	if got := i.RemapBlock(1, 100); got != 100+spareSlip {
		t.Fatalf("remap: got %d", got)
	}
	if got := i.RemapBlock(3, 200); got != 200+spareSlip {
		t.Fatalf("wildcard remap: got %d", got)
	}
	if i.Stats.BadBlockRemaps != 2 {
		t.Fatalf("remap count %d, want 2", i.Stats.BadBlockRemaps)
	}
}

func TestWindows(t *testing.T) {
	plan, err := Parse(strings.Join([]string{
		"disk degraded disk=0 from=100 until=200 mult=3",
		"ring outage node=2 from=50 until=150",
		"mesh flap node=1 dir=west from=10 until=20",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	i := NewInjector(plan, 1, Aggressive)
	if m := i.DegradeMult(0, 99); m != 1 {
		t.Fatalf("degrade before window: %d", m)
	}
	if m := i.DegradeMult(0, 100); m != 3 {
		t.Fatalf("degrade at window start: %d", m)
	}
	if m := i.DegradeMult(1, 150); m != 1 {
		t.Fatalf("degrade wrong disk: %d", m)
	}
	if m := i.DegradeMult(0, 200); m != 1 {
		t.Fatalf("degrade at window end (exclusive): %d", m)
	}
	if i.Stats.DegradedAccs != 1 {
		t.Fatalf("degraded accesses %d, want 1", i.Stats.DegradedAccs)
	}
	if i.RingTxDown(2, 49) || !i.RingTxDown(2, 50) || i.RingTxDown(2, 150) || i.RingTxDown(0, 100) {
		t.Fatal("outage window boundaries wrong")
	}
	if !i.HasFlaps() {
		t.Fatal("HasFlaps false with a flap present")
	}
	if u := i.LinkDownUntil(1, DirWest, 15); u != 20 {
		t.Fatalf("flap window until: %d", u)
	}
	if u := i.LinkDownUntil(1, DirEast, 15); u != 0 {
		t.Fatalf("flap wrong dir: %d", u)
	}
}

func TestVulnerabilityAccounting(t *testing.T) {
	i := NewInjector(&Plan{}, 1, Conservative)
	reg := obs.NewRegistry()
	i.Observe(reg.Root().Scope("faultinj"))
	i.NoteRingInsert(100)
	i.NoteRingInsert(200)
	if i.vuln != 2 {
		t.Fatalf("vulnerable %d, want 2", i.vuln)
	}
	i.NoteRingRelease(300, 100)
	i.NoteVoided(400, 200)
	if i.vuln != 0 {
		t.Fatalf("vulnerable %d, want 0", i.vuln)
	}
	i.NoteRecovered(5000)
	if i.Stats.VoidedPages != 1 || i.Stats.RecoveredPages != 1 || i.Stats.LostPages != 0 {
		t.Fatalf("stats %+v", i.Stats)
	}
	if !strings.Contains(i.Summary(), "policy=conservative") {
		t.Fatalf("summary: %q", i.Summary())
	}
}

func TestPolicyParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{{"", Aggressive}, {"aggressive", Aggressive}, {"conservative", Conservative}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
	if Aggressive.String() != "aggressive" || Conservative.String() != "conservative" {
		t.Fatal("Policy.String mismatch")
	}
}
