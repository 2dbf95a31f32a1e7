package sweep

import (
	"bytes"
	"testing"

	"nwcache/internal/obs"
)

const eventsSpecText = `
name events-test
apps em3d
kinds nwcache
modes naive
seeds 1..2
scale 0.05
`

func eventsSpec(t *testing.T, extra string) *Spec {
	t.Helper()
	s, err := ParseSpec(eventsSpecText + extra)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func collect(evs *[]obs.Event) func(obs.Event) {
	return func(ev obs.Event) { *evs = append(*evs, ev) }
}

func countType(evs []obs.Event, typ string) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

func TestRunnerEmitsLifecycleEvents(t *testing.T) {
	s := eventsSpec(t, "")
	dir := t.TempDir()

	var evs []obs.Event
	r := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir, OnEvent: collect(&evs)}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 2 {
		t.Fatalf("got %d events, want at least shard.start + shard.done", len(evs))
	}
	first, last := evs[0], evs[len(evs)-1]
	if first.Type != obs.EventShardStart || first.Key != s.Digest() || first.Done != 0 || first.Total != 2 {
		t.Fatalf("first event = %+v, want shard.start key=%s 0/2", first, s.Digest())
	}
	if last.Type != obs.EventShardDone || last.Reason != "complete" || last.Done != 2 || last.Total != 2 {
		t.Fatalf("last event = %+v, want shard.done complete 2/2", last)
	}
	if got := countType(evs, obs.EventCellStart); got != 2 {
		t.Fatalf("cell.start count = %d, want 2", got)
	}
	if got := countType(evs, obs.EventCellDone); got != 2 {
		t.Fatalf("cell.done count = %d, want 2", got)
	}
	sawEta := false
	for _, ev := range evs {
		if ev.Type != obs.EventCellDone {
			continue
		}
		if ev.DurationNS <= 0 {
			t.Fatalf("cell.done without duration: %+v", ev)
		}
		if ev.EtaNS > 0 {
			sawEta = true
		}
		if ev.Done == ev.Total && ev.EtaNS != 0 {
			t.Fatalf("final cell.done still projects an ETA: %+v", ev)
		}
	}
	if !sawEta {
		t.Fatal("no cell.done carried an ETA while cells remained")
	}

	// A warm re-run settles every cell from the STATE file.
	evs = nil
	r = &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir, OnEvent: collect(&evs)}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := countType(evs, obs.EventCellState); got != 2 {
		t.Fatalf("warm re-run cell.state count = %d, want 2 (events: %+v)", got, evs)
	}
	if got := countType(evs, obs.EventCellStart); got != 0 {
		t.Fatalf("warm re-run admitted %d fresh cells, want 0", got)
	}
	if last := evs[len(evs)-1]; last.Type != obs.EventShardDone || last.Reason != "complete" {
		t.Fatalf("warm re-run last event = %+v, want shard.done complete", last)
	}
}

// TestObservedRunIsByteIdentical pins the headline invariant of the
// service layer: attaching lifecycle events and a live telemetry set —
// with or without recorded series — changes no artifact byte.
func TestObservedRunIsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra string
	}{
		{"live-only-sampler", ""},
		{"published-record-sampler", "series 200000\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := eventsSpec(t, tc.extra)
			bare, observed := t.TempDir(), t.TempDir()

			runSweep(t, s, bare, 1, 0)

			live := &obs.LiveSet{}
			var evs []obs.Event
			r := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: observed,
				OnEvent: collect(&evs), Live: live}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := Merge(s, observed, 1, &out); err != nil {
				t.Fatal(err)
			}

			if got := len(live.Frames()); got == 0 {
				t.Fatal("observed run published no live frames")
			}
			bareND, bareMan, bareSer := MergedPaths(bare)
			obsND, obsMan, obsSer := MergedPaths(observed)
			if !bytes.Equal(readFileT(t, bareND), readFileT(t, obsND)) {
				t.Fatal("merged NDJSON differs between bare and observed runs")
			}
			if !bytes.Equal(readFileT(t, bareMan), readFileT(t, obsMan)) {
				t.Fatal("merged manifest differs between bare and observed runs")
			}
			if s.SeriesInterval > 0 {
				if !bytes.Equal(readFileT(t, bareSer), readFileT(t, obsSer)) {
					t.Fatal("merged series differs between bare and observed runs")
				}
			}
		})
	}
}
