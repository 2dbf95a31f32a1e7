package fault

import (
	"reflect"
	"strings"
	"testing"

	"nwcache/internal/param"
)

const fullSpec = `
# everything the language can express, out of canonical order
mesh flap node=3 dir=south from=900 until=1100
node crash node=2 at=5000
disk read-error rate=0.01 retries=3 backoff=100
disk write-error rate=0.002
disk bad-block disk=* block=42
disk bad-block disk=1 block=7
ring corrupt rate=0.05
ring outage node=0 from=1000 until=2000
disk degraded disk=0 from=500 until=1500 mult=4
node crash node=0 at=300   # trailing comment
`

func TestParseFullSpec(t *testing.T) {
	p, err := Parse(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	def := param.Default()
	want := &Plan{
		DiskRead:    ErrorSpec{Rate: 0.01, Retries: 3, Backoff: 100},
		DiskWrite:   ErrorSpec{Rate: 0.002, Retries: def.FaultRetries, Backoff: def.FaultBackoff},
		BadBlocks:   []BadBlock{{Disk: -1, Block: 42}, {Disk: 1, Block: 7}},
		Degraded:    []Degraded{{Disk: 0, From: 500, Until: 1500, Mult: 4}},
		CorruptRate: 0.05,
		Outages:     []Outage{{Node: 0, From: 1000, Until: 2000}},
		Crashes:     []Crash{{Node: 0, At: 300}, {Node: 2, At: 5000}},
		Flaps:       []Flap{{Node: 3, Dir: DirSouth, From: 900, Until: 1100}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parse mismatch:\n got %+v\nwant %+v", p, want)
	}
}

func TestRoundTrip(t *testing.T) {
	p, err := Parse(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	text := p.String()
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparsing canonical form: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round-trip drift:\n got %+v\nwant %+v\ncanonical:\n%s", p2, p, text)
	}
	// The canonical form is a fixed point: rendering again is identical.
	if text2 := p2.String(); text2 != text {
		t.Fatalf("canonical form not stable:\n%q\nvs\n%q", text, text2)
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("\n# only comments\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &Plan{}) {
		t.Fatalf("comment-only spec should be empty, got %+v", p)
	}
	if p.String() != "" {
		t.Fatalf("empty plan renders %q", p.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, spec, frag string }{
		{"unknown directive", "disk explode rate=1", "unknown directive"},
		{"incomplete", "disk", "incomplete"},
		{"malformed kv", "disk read-error rate", "malformed argument"},
		{"duplicate key", "disk read-error rate=0.1 rate=0.2", "duplicate key"},
		{"rate too big", "disk read-error rate=1.5", "probability"},
		{"rate negative", "ring corrupt rate=-0.1", "probability"},
		{"missing rate", "disk write-error retries=2", "missing rate="},
		{"bad retries", "disk read-error rate=0.1 retries=-1", "retries"},
		{"bad block id", "disk bad-block disk=0 block=x", "block"},
		{"wildcard crash", "node crash node=* at=10", "specific node"},
		{"wildcard flap", "mesh flap node=* dir=east from=1 until=2", "specific node"},
		{"bad dir", "mesh flap node=0 dir=up from=1 until=2", "unknown dir"},
		{"missing dir", "mesh flap node=0 from=1 until=2", "missing dir="},
		{"inverted window", "ring outage node=0 from=20 until=10", "must be after"},
		{"zero mult", "disk degraded disk=0 from=1 until=2 mult=0", "mult"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.spec)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", c.spec, c.frag)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("Parse(%q) error %q does not mention %q", c.spec, err, c.frag)
			}
		})
	}
}
