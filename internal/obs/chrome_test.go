package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The satellite requirement: encode → decode → same spans, exactly.
// Timestamps in the file are lossy microseconds, so fidelity rests on
// the pc/dpc args the encoder embeds.
func TestChromeRoundTrip(t *testing.T) {
	tr := NewTrace(0)
	tr.SetTrack(0, "cpu0")
	tr.SetTrack(3, "disk@2")
	tr.Span(0, "fault.disk", 17, 4211, 92)  // 17 pcycles = 0.085 µs: sub-µs precision
	tr.Span(0, "fault.ring", 4300, 4301, 0) // 1-pcycle span
	tr.Span(3, "disk.write", 100000, 250000, 7)
	tr.Instant(3, "disk.nack", 123457, 7)

	var buf bytes.Buffer
	if err := WriteChromeMulti(&buf, []NamedTrace{{"nwsim", tr}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d processes, want 1", len(got))
	}
	if got[0].Name != "nwsim" {
		t.Fatalf("process name %q, want nwsim", got[0].Name)
	}
	rt := got[0].Trace
	if !reflect.DeepEqual(rt.Spans(), tr.Spans()) {
		t.Fatalf("spans round-trip mismatch:\n got %+v\nwant %+v", rt.Spans(), tr.Spans())
	}
	if !reflect.DeepEqual(rt.Instants(), tr.Instants()) {
		t.Fatalf("instants round-trip mismatch:\n got %+v\nwant %+v", rt.Instants(), tr.Instants())
	}
	if rt.tracks[0] != "cpu0" || rt.tracks[3] != "disk@2" {
		t.Fatalf("track names lost: %q %q", rt.tracks[0], rt.tracks[3])
	}
}

func TestChromeMultiProcess(t *testing.T) {
	a := NewTrace(0)
	a.Span(1, "x", 0, 10, 0)
	b := NewTrace(1)
	b.Span(2, "y", 5, 6, 3)
	b.Instant(2, "z", 6, 3) // over b's cap: dropped
	var buf bytes.Buffer
	if err := WriteChromeMulti(&buf, []NamedTrace{{"run-a", a}, {"run-b", b}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "run-a" || got[1].Name != "run-b" {
		t.Fatalf("processes = %+v", got)
	}
	if !reflect.DeepEqual(got[0].Trace.Spans(), a.Spans()) ||
		!reflect.DeepEqual(got[1].Trace.Spans(), b.Spans()) {
		t.Fatal("per-process spans mismatch")
	}
	if got[0].Trace.Dropped() != 0 || got[1].Trace.Dropped() != 1 {
		t.Fatalf("dropped %d/%d, want 0/1", got[0].Trace.Dropped(), got[1].Trace.Dropped())
	}
}

// The file must be the JSON Object Format viewers expect: a traceEvents
// array of ph:"X"/"M" records with µs timestamps.
func TestChromeFormatShape(t *testing.T) {
	tr := NewTrace(0)
	tr.SetTrack(0, "cpu0")
	tr.Span(0, "op", 200, 400, 0) // 200 pcycles @5ns = 1 µs
	var buf bytes.Buffer
	if err := WriteChromeMulti(&buf, []NamedTrace{{"p", tr}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var x map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			x = ev
		}
	}
	if x == nil {
		t.Fatal("no complete (ph=X) event emitted")
	}
	if x["ts"].(float64) != 1.0 || x["dur"].(float64) != 1.0 {
		t.Fatalf("ts/dur = %v/%v µs, want 1/1", x["ts"], x["dur"])
	}
	if !strings.Contains(buf.String(), "thread_name") {
		t.Fatal("track metadata missing")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Root().Scope("disk").Counter("reads").Add(9)
	var out bytes.Buffer
	dw := NewDigestWriter(&out)
	dw.Write([]byte("simulation output\n"))
	m := &Manifest{
		Tool:    "nwsim",
		App:     "gauss",
		Seed:    1,
		Params:  json.RawMessage(`{"Nodes":16}`),
		WallNS:  12345,
		Metrics: r.Snapshot(),
		Digest:  dw.Sum(),
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != m.Digest || !strings.HasPrefix(got.Digest, "sha256:") {
		t.Fatalf("digest %q != %q", got.Digest, m.Digest)
	}
	if mv, ok := got.Metrics.Get("disk.reads"); !ok || mv.Value != 9 {
		t.Fatalf("metrics lost: %+v ok=%v", mv, ok)
	}
	// Same bytes → same digest; different bytes → different digest.
	d2 := NewDigestWriter(&bytes.Buffer{})
	d2.Write([]byte("simulation output\n"))
	if d2.Sum() != m.Digest {
		t.Fatal("digest not deterministic")
	}
	d3 := NewDigestWriter(&bytes.Buffer{})
	d3.Write([]byte("different\n"))
	if d3.Sum() == m.Digest {
		t.Fatal("digest failed to distinguish outputs")
	}
}

// FuzzReadChrome pins the Chrome reader: arbitrary bytes never panic it,
// and an accepted document reaches a fixed point after one
// WriteChromeMulti → ReadChrome round trip (timestamps recovered from
// rounded microseconds are written back as exact pcycles).
func FuzzReadChrome(f *testing.F) {
	tr := NewTrace(0)
	tr.SetTrack(0, "cpu0")
	tr.Span(0, "fault.ring", 4300, 13653, 92)
	tr.Instant(16, "ring.insert", 4100, 92)
	var buf bytes.Buffer
	if err := WriteChromeMulti(&buf, []NamedTrace{{"nwsim mg/nwcache/optimal", tr}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"X","pid":3,"tid":1,"ts":1.5,"dur":2},` +
		`{"name":"y","ph":"i","pid":-1,"tid":0,"ts":0.25,"args":{"page":4}}],` +
		`"otherData":{"nsPerTick":2,"dropped":{"3":2,"7":1}}}`))
	f.Add([]byte(`{}`))
	// A clock scale this coarse would export ts = +Inf, which JSON cannot
	// carry: ReadChrome must reject it rather than accept a file it
	// cannot write back.
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"X","args":{"pc":1000000000000000000}}],"otherData":{"nsPerTick":1e300}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteChromeMulti(&out, first); err != nil {
			t.Fatalf("writing accepted trace: %v", err)
		}
		second, err := ReadChrome(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip is not a fixed point:\n first %+v\nsecond %+v", first, second)
		}
	})
}
