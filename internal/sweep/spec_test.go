package sweep

import (
	"strings"
	"testing"

	"nwcache/internal/core"
)

const testSpecText = `
# a small but multi-axis grid
name unit
apps em3d,gauss
kinds standard,nwcache
modes naive,optimal
seeds 1..2
scale 0.05
param MinFreeFrames 2,8
fault none
fault recovery=conservative seed=3 plan=disk read-error rate=0.01
`

func testSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec(testSpecText)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSpecAxes(t *testing.T) {
	s := testSpec(t)
	if got := s.NumCells(); got != 2*2*2*2*2*2 {
		t.Fatalf("NumCells = %d, want 64", got)
	}
	if len(s.Faults) != 2 || !s.Faults[0].none() || s.Faults[1].Recovery != "conservative" {
		t.Fatalf("fault axis parsed wrong: %+v", s.Faults)
	}
	if s.Faults[1].Plan != "disk read-error rate=0.01" {
		t.Fatalf("plan = %q", s.Faults[1].Plan)
	}
	if s.Scale != 0.05 || s.Name != "unit" {
		t.Fatalf("scale/name = %v/%q", s.Scale, s.Name)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("scale 0.1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Apps) != len(core.Apps()) {
		t.Fatalf("default apps = %v", s.Apps)
	}
	if len(s.Kinds) != 2 || len(s.Modes) != 2 || len(s.Seeds) != 1 || len(s.Faults) != 1 {
		t.Fatalf("defaults: kinds=%d modes=%d seeds=%d faults=%d",
			len(s.Kinds), len(s.Modes), len(s.Seeds), len(s.Faults))
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, text := range []string{
		"apps nosuchapp\n",
		"param NoSuchField 1,2\n",
		"param MinFreeFrames not-json\n",
		"kinds hybrid\n",
		"modes psychic\n",
		"seeds 5..1\n",
		"scale -1\n",
		"bogus directive\n",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted bad input", text)
		}
	}
}

func TestCanonRoundTrip(t *testing.T) {
	s := testSpec(t)
	s2, err := ParseSpec(s.Canon())
	if err != nil {
		t.Fatalf("Canon does not re-parse: %v\n%s", err, s.Canon())
	}
	if s.Canon() != s2.Canon() {
		t.Fatalf("Canon not a fixed point:\n%s\nvs\n%s", s.Canon(), s2.Canon())
	}
	if s.Digest() != s2.Digest() {
		t.Fatal("round-tripped spec has a different digest")
	}
	// A different grid must have a different identity.
	other, err := ParseSpec(strings.Replace(testSpecText, "seeds 1..2", "seeds 1..3", 1))
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest() == s.Digest() {
		t.Fatal("different grids share a digest")
	}
}

func TestEachCellDeterministicAndComplete(t *testing.T) {
	s := testSpec(t)
	var keys1, keys2 []string
	walk := func(out *[]string) {
		if err := s.EachCell(func(idx int, c core.Cell) error {
			if idx != len(*out) {
				t.Fatalf("idx %d out of sequence (have %d cells)", idx, len(*out))
			}
			*out = append(*out, c.Key())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	walk(&keys1)
	walk(&keys2)
	if len(keys1) != s.NumCells() {
		t.Fatalf("enumerated %d cells, NumCells says %d", len(keys1), s.NumCells())
	}
	seen := make(map[string]bool)
	for i := range keys1 {
		if keys1[i] != keys2[i] {
			t.Fatalf("enumeration not deterministic at cell %d", i)
		}
		if seen[keys1[i]] {
			t.Fatalf("duplicate cell key at index %d", i)
		}
		seen[keys1[i]] = true
	}
}

func TestEachCellAppliesAxes(t *testing.T) {
	s := testSpec(t)
	minfree := make(map[int]int)
	faulted := 0
	if err := s.EachCell(func(idx int, c core.Cell) error {
		minfree[c.Cfg.MinFreeFrames]++
		if c.FaultPlan != "" {
			faulted++
			if c.Recovery != "conservative" || c.FaultSeed != 3 {
				t.Fatalf("fault cell missing recovery/seed: %+v", c)
			}
		}
		if c.Cfg.Scale != 0.05 {
			t.Fatalf("cell scale = %v", c.Cfg.Scale)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The MinFreeFrames axis overrides the paper floor on every cell.
	if minfree[2] != 32 || minfree[8] != 32 {
		t.Fatalf("MinFreeFrames distribution = %v, want 32 each of 2 and 8", minfree)
	}
	if faulted != s.NumCells()/2 {
		t.Fatalf("faulted cells = %d, want %d", faulted, s.NumCells()/2)
	}
}

func TestPaperMinFreeAppliedWithoutAxis(t *testing.T) {
	s, err := ParseSpec("apps gauss\nkinds standard,nwcache\nmodes naive,optimal\nscale 0.05\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EachCell(func(idx int, c core.Cell) error {
		if want := core.PaperMinFree(c.Kind, c.Mode); c.Cfg.MinFreeFrames != want {
			t.Fatalf("cell %d (%s): MinFreeFrames = %d, want paper %d",
				idx, c.Label(), c.Cfg.MinFreeFrames, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestShardPartitionCompleteAndDisjoint(t *testing.T) {
	s := testSpec(t)
	total := s.NumCells()
	for _, n := range []int{1, 2, 3, 4, 7} {
		owner := make([]int, total)
		for i := range owner {
			owner[i] = -1
		}
		for shard := 0; shard < n; shard++ {
			count := 0
			if err := s.EachShardCell(shard, n, func(idx int, c core.Cell) error {
				if owner[idx] != -1 {
					t.Fatalf("n=%d: cell %d owned by shards %d and %d", n, idx, owner[idx], shard)
				}
				if ShardOf(idx, n) != shard {
					t.Fatalf("n=%d: cell %d delivered to shard %d, ShardOf says %d",
						n, idx, shard, ShardOf(idx, n))
				}
				owner[idx] = shard
				count++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := s.ShardSize(shard, n); count != want {
				t.Fatalf("n=%d shard %d: %d cells, ShardSize says %d", n, shard, count, want)
			}
		}
		for idx, o := range owner {
			if o == -1 {
				t.Fatalf("n=%d: cell %d owned by no shard", n, idx)
			}
		}
	}
}

// TestCanonPinsSingleFieldAxes pins the canonical text of a spec with
// single-field axes: its digest keys STATE files and manifests, so the
// rendering must not drift.
func TestCanonPinsSingleFieldAxes(t *testing.T) {
	want := `name unit
apps em3d,gauss
kinds standard,nwcache
modes naive,optimal
seeds 1,2
scale 0.05
minfree paper
param MinFreeFrames 2,8
fault none
fault recovery=conservative seed=3 plan=disk read-error rate=0.01
`
	if got := testSpec(t).Canon(); got != want {
		t.Fatalf("Canon =\n%s\nwant\n%s", got, want)
	}
}

const tupleSpecText = `
apps gauss
kinds standard,nwcache
modes naive
scale 0.05
param Nodes/MeshW/MeshH/IONodes/RingChannels 4/2/2/2/4,16/4/4/4/16
param DCD false,true
`

func TestTupleAxisMovesFieldsTogether(t *testing.T) {
	s, err := ParseSpec(tupleSpecText)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumCells(); got != 1*2*1*2*2 {
		t.Fatalf("NumCells = %d, want 8", got)
	}
	shapes := map[[5]int]int{}
	if err := s.EachCell(func(idx int, c core.Cell) error {
		cfg := c.Cfg
		shapes[[5]int{cfg.Nodes, cfg.MeshW, cfg.MeshH, cfg.IONodes, cfg.RingChannels}]++
		if want := core.PaperMinFree(c.Kind, c.Mode); cfg.MinFreeFrames != want {
			t.Fatalf("cell %d: MinFreeFrames = %d, want paper %d", idx, cfg.MinFreeFrames, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[[5]int]int{{4, 2, 2, 2, 4}: 4, {16, 4, 4, 4, 16}: 4}
	if len(shapes) != len(want) || shapes[[5]int{4, 2, 2, 2, 4}] != 4 || shapes[[5]int{16, 4, 4, 4, 16}] != 4 {
		t.Fatalf("machine shapes = %v, want %v", shapes, want)
	}

	c1 := s.Canon()
	if !strings.Contains(c1, "param Nodes/MeshW/MeshH/IONodes/RingChannels 4/2/2/2/4,16/4/4/4/16\n") {
		t.Fatalf("Canon lost the tuple axis:\n%s", c1)
	}
	s2, err := ParseSpec(c1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Canon() != c1 || s2.Digest() != s.Digest() {
		t.Fatalf("tuple Canon not a fixed point:\n%s\nvs\n%s", c1, s2.Canon())
	}
}

func TestTupleAxisWithMinFreeFramesOverridesPaperFloor(t *testing.T) {
	s, err := ParseSpec("apps gauss\nkinds standard,nwcache\nmodes naive,optimal\nscale 0.05\n" +
		"param SwapQueueDepth/MinFreeFrames 1/2,4/16\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EachCell(func(idx int, c core.Cell) error {
		want := map[int]int{1: 2, 4: 16}[c.Cfg.SwapQueueDepth]
		if c.Cfg.MinFreeFrames != want {
			t.Fatalf("cell %d (%s): MinFreeFrames = %d, want %d from the tuple",
				idx, c.Label(), c.Cfg.MinFreeFrames, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestParseSpecRejectsBadAxes(t *testing.T) {
	for _, tc := range []struct {
		name, text, want string
	}{
		{"field swept twice", "param MinFreeFrames 2,4\nparam MinFreeFrames 8\n", "swept twice"},
		{"field twice in one tuple", "param MeshW/MeshW 2/2\n", "swept twice"},
		{"field in a tuple and an axis", "param MeshW 2,4\nparam MeshW/MeshH 4/2\n", "swept twice"},
		{"seed axis", "seeds 1..3\nparam Seed 7\n", "seeds directive"},
		{"scale axis", "param Scale 0.5\n", "scale directive"},
		{"seed in a tuple", "param MeshW/Seed 4/7\n", "seeds directive"},
		{"tuple arity short", "param MeshW/MeshH 4/2,4\n", "has 1 parts, want 2"},
		{"tuple arity long", "param MeshW/MeshH 4/2/1\n", "has 3 parts, want 2"},
		{"unknown field in a tuple", "param MeshW/NoSuchField 4/2\n", "not a config field"},
		{"bad JSON in a tuple", "param MeshW/MeshH 4/x\n", "not valid JSON"},
	} {
		_, err := ParseSpec(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseSpec(%q) error = %v, want it to mention %q", tc.name, tc.text, err, tc.want)
		}
	}
}

func TestPivotColumnsFollowGridOrder(t *testing.T) {
	s, err := ParseSpec("apps gauss,fft\nkinds standard,nwcache\nmodes naive\nseeds 1..2\nscale 0.05\n" +
		"param MeshW/MeshH 4/2,2/4\nparam DCD false\n")
	if err != nil {
		t.Fatal(err)
	}
	axes, labels := s.pivotColumns()
	if got, want := strings.Join(axes, "|"), "kind|seed|MeshW/MeshH"; got != want {
		t.Fatalf("axes = %s, want %s", got, want)
	}
	want := []string{
		"standard 1 4/2", "standard 1 2/4", "standard 2 4/2", "standard 2 2/4",
		"nwcache 1 4/2", "nwcache 1 2/4", "nwcache 2 4/2", "nwcache 2 2/4",
	}
	if strings.Join(labels, "|") != strings.Join(want, "|") {
		t.Fatalf("labels = %q, want %q", labels, want)
	}
	if len(labels)*len(s.Apps) != s.NumCells() {
		t.Fatalf("%d columns x %d apps != %d cells", len(labels), len(s.Apps), s.NumCells())
	}
	one, err := ParseSpec("apps gauss,fft\nkinds standard\nmodes naive\nscale 0.05\n")
	if err != nil {
		t.Fatal(err)
	}
	if axes, labels := one.pivotColumns(); len(axes) != 0 || len(labels) != 1 {
		t.Fatalf("no varying axis: axes %q labels %q, want none and one column", axes, labels)
	}
}
