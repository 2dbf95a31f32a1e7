package machine

import (
	"testing"

	"nwcache/internal/disk"
)

// A recording Ctx captures every operation kind with its arguments and
// exposes the same identity the real run would.
func TestRecordingCtxCapturesOps(t *testing.T) {
	var got []OpEvent
	c := NewRecordingCtx(1, 4, 42, func(ev OpEvent) { got = append(got, ev) })
	if c.Proc() != 1 || c.Procs() != 4 {
		t.Fatalf("identity %d/%d, want 1/4", c.Proc(), c.Procs())
	}

	c.Compute(10)
	c.Touch(3, 2, 8, true)
	c.Read(5, 0, 0) // lines normalized to 1 before recording
	c.Barrier()
	c.LockAcquire(7)
	c.LockRelease(7)
	c.FileRead(9, 2)
	c.FileWrite(11, 1)

	wantOps := []OpEvent{
		{Kind: OpCompute, Cycles: 10},
		{Kind: OpTouch, Page: 3, Sub: 2, Lines: 8, Write: true},
		{Kind: OpTouch, Page: 5, Sub: 0, Lines: 1, Write: false},
		{Kind: OpBarrier},
		{Kind: OpLockAcquire, Lock: 7},
		{Kind: OpLockRelease, Lock: 7},
		{Kind: OpFileRead, Page: 9, Pages: 2},
		{Kind: OpFileWrite, Page: 11, Pages: 1},
	}
	if len(got) != len(wantOps) {
		t.Fatalf("recorded %d ops, want %d", len(got), len(wantOps))
	}
	for i := range wantOps {
		if got[i] != wantOps[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], wantOps[i])
		}
	}
}

// Compute(0) is a no-op in both modes; it must not be recorded either.
func TestRecordingCtxSkipsNoopCompute(t *testing.T) {
	n := 0
	c := NewRecordingCtx(0, 1, 1, func(OpEvent) { n++ })
	c.Compute(0)
	c.Compute(-5)
	if n != 0 {
		t.Fatalf("recorded %d no-op computes", n)
	}
}

// Time-dependent methods are unavailable while recording: recording
// without simulating is only sound for time-oblivious programs, so the
// recorder fails loudly instead of returning a wrong answer.
func TestRecordingCtxNowPanics(t *testing.T) {
	c := NewRecordingCtx(0, 1, 1, func(OpEvent) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Now did not panic in recording mode")
		}
	}()
	c.Now()
}

func TestRecordingCtxMachinePanics(t *testing.T) {
	c := NewRecordingCtx(0, 1, 1, func(OpEvent) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Machine did not panic in recording mode")
		}
	}()
	c.Machine()
}

// Control messages (OK/ring-ACK/notify/cancel deliveries) recycle
// through the machine's message pool instead of allocating a closure per
// message.
func TestMeshMsgPoolRecycles(t *testing.T) {
	m, err := New(smallCfg(), Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	g := m.takeMsg()
	g.kind, g.to = msgOK, 0
	g.run() // no writer's step: delivery is a no-op, then self-pools
	if len(m.msgPool) != 1 {
		t.Fatalf("pool holds %d messages after run, want 1", len(m.msgPool))
	}
	if g2 := m.takeMsg(); g2 != g {
		t.Fatal("takeMsg did not reuse the pooled message")
	}
}
