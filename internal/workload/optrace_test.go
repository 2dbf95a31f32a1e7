package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/machine"
)

func TestRecordCapturesOps(t *testing.T) {
	cfg := testCfg()
	tr, err := Record(NewSeqScan(16, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalOps() == 0 {
		t.Fatal("empty recording")
	}
	if len(tr.Ops) != cfg.Nodes {
		t.Fatalf("streams %d, want %d", len(tr.Ops), cfg.Nodes)
	}
	// Each proc ends with a barrier (SeqScan's per-pass barrier).
	for p, ops := range tr.Ops {
		if len(ops) == 0 {
			t.Fatalf("proc %d recorded nothing", p)
		}
		if ops[len(ops)-1].Kind != machine.OpBarrier {
			t.Fatalf("proc %d last op %v, want barrier", p, ops[len(ops)-1].Kind)
		}
	}
}

func TestReplayReproducesOriginalRun(t *testing.T) {
	cfg := testCfg()
	orig := NewSeqScan(24, 2)
	tr, err := Record(orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p machine.Program) *machine.Result {
		m, err := machine.New(cfg, machine.NWCache, disk.Naive)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(orig)
	b := run(tr)
	if a.ExecTime != b.ExecTime || a.Faults != b.Faults || a.SwapOuts != b.SwapOuts {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.ExecTime, a.Faults, a.SwapOuts, b.ExecTime, b.Faults, b.SwapOuts)
	}
}

func TestOpTraceBinaryRoundTrip(t *testing.T) {
	cfg := testCfg()
	tr, err := Record(NewHotCold(4, 16, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOpTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceName != tr.TraceName || got.Pages != tr.Pages {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", got.TraceName, got.Pages, tr.TraceName, tr.Pages)
	}
	if got.TotalOps() != tr.TotalOps() {
		t.Fatalf("ops %d vs %d", got.TotalOps(), tr.TotalOps())
	}
	for p := range tr.Ops {
		for i := range tr.Ops[p] {
			if got.Ops[p][i] != tr.Ops[p][i] {
				t.Fatalf("proc %d op %d: %+v vs %+v", p, i, got.Ops[p][i], tr.Ops[p][i])
			}
		}
	}
}

func TestOpTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadOpTrace(strings.NewReader("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	tr := &OpTrace{TraceName: "x", Ops: [][]machine.OpEvent{{{Kind: machine.OpBarrier}}}}
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadOpTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}

	// Well-framed traces whose ops a replay could not execute.
	for _, tc := range []struct {
		name  string
		pages int64
		op    machine.OpEvent
	}{
		{"unknown kind", 8, machine.OpEvent{Kind: 99}},
		{"negative pages header", -1, machine.OpEvent{Kind: machine.OpBarrier}},
		{"negative touch page", 8, machine.OpEvent{Kind: machine.OpTouch, Page: -3, Lines: 1}},
		{"touch past footprint", 8, machine.OpEvent{Kind: machine.OpTouch, Page: 8, Lines: 1}},
		{"touch past sub-blocks", 8, machine.OpEvent{Kind: machine.OpTouch, Page: 1, Sub: 4, Lines: 1}},
		{"negative lock", 8, machine.OpEvent{Kind: machine.OpLockAcquire, Lock: -5}},
		{"negative release lock", 8, machine.OpEvent{Kind: machine.OpLockRelease, Lock: -1}},
		{"negative cycles", 8, machine.OpEvent{Kind: machine.OpCompute, Cycles: -7}},
		{"negative file pages", 8, machine.OpEvent{Kind: machine.OpFileRead, Page: 1, Pages: -2}},
		{"negative file page", 8, machine.OpEvent{Kind: machine.OpFileWrite, Page: -1, Pages: 1}},
	} {
		var buf bytes.Buffer
		bad := &OpTrace{TraceName: "bad", Pages: tc.pages, Ops: [][]machine.OpEvent{{tc.op}}}
		if err := bad.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadOpTrace(&buf); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A 32-byte header claiming 2^30 ops on one proc must fail as a
// truncated trace, not presize a 77 GB op slice.
func TestOpTraceHugeCountHeaderTruncates(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(opTraceMagic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(0))     // name length
	binary.Write(&buf, binary.LittleEndian, int64(16))     // pages
	binary.Write(&buf, binary.LittleEndian, uint32(1))     // procs
	binary.Write(&buf, binary.LittleEndian, uint64(1<<30)) // op count
	if buf.Len() != 32 {
		t.Fatalf("header is %d bytes, want 32", buf.Len())
	}
	_, err := ReadOpTrace(&buf)
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a truncation error", err)
	}
}

// Traces recorded from every built-in application decode to the
// recorded trace: the validation accepts every real op stream.
func TestOpTraceRecordedAppsDecode(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 0.05
	for name, prog := range Registry(cfg.Scale, cfg.Seed) {
		tr, err := Record(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadOpTrace(&buf)
		if err != nil {
			t.Fatalf("%s: recorded trace rejected: %v", name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("%s: decoded trace differs from the recording", name)
		}
	}
}

// FuzzReadOpTrace: arbitrary input never panics the decoder, and any
// accepted trace re-encodes and decodes to an identical trace.
func FuzzReadOpTrace(f *testing.F) {
	tr, err := Record(NewHotCold(4, 16, 1), testCfg())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:40])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadOpTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadOpTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("re-encoded trace decodes differently")
		}
	})
}

func TestReplayOnDifferentMachineKind(t *testing.T) {
	// A trace recorded once replays on either machine kind: the recorded
	// stream is substrate-independent.
	cfg := testCfg()
	tr, err := Record(NewSeqScan(24, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []machine.Kind{machine.Standard, machine.NWCache} {
		m, err := machine.New(cfg, kind, disk.Optimal)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(tr)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.ExecTime <= 0 {
			t.Fatalf("%v: empty replay", kind)
		}
	}
}
