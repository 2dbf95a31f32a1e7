package workload

// Record/replay: capture the operation stream an application issues and
// replay it later as a Program — the classic trace-driven simulation
// facility. A recorded trace decouples the workload from its generator:
// traces can be archived, diffed, filtered, or replayed on differently
// configured machines (as long as the processor count matches).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nwcache/internal/coherence"
	"nwcache/internal/machine"
	"nwcache/internal/param"
)

// OpTrace is a recorded application: one operation stream per processor.
type OpTrace struct {
	TraceName string
	Pages     int64
	Ops       [][]machine.OpEvent // indexed by proc
}

// Name implements machine.Program.
func (t *OpTrace) Name() string { return t.TraceName }

// DataPages implements machine.Program.
func (t *OpTrace) DataPages() int64 { return t.Pages }

// Run implements machine.Program: replay proc's stream.
func (t *OpTrace) Run(ctx *machine.Ctx, proc int) {
	if proc >= len(t.Ops) {
		return
	}
	for _, op := range t.Ops[proc] {
		switch op.Kind {
		case machine.OpTouch:
			ctx.Touch(op.Page, op.Sub, op.Lines, op.Write)
		case machine.OpCompute:
			ctx.Compute(op.Cycles)
		case machine.OpBarrier:
			ctx.Barrier()
		case machine.OpLockAcquire:
			ctx.LockAcquire(op.Lock)
		case machine.OpLockRelease:
			ctx.LockRelease(op.Lock)
		case machine.OpFileRead:
			ctx.FileRead(op.Page, op.Pages)
		case machine.OpFileWrite:
			ctx.FileWrite(op.Page, op.Pages)
		default:
			panic(fmt.Sprintf("workload: unknown op kind %d", op.Kind))
		}
	}
}

// TotalOps returns the number of recorded operations.
func (t *OpTrace) TotalOps() int {
	n := 0
	for _, ops := range t.Ops {
		n += len(ops)
	}
	return n
}

// Record captures prog's operation streams by running each thread on a
// recording Ctx (machine.NewRecordingCtx): no machine is built and
// nothing is simulated. The streams equal those a simulated run issues
// on any machine because the built-in programs are time-oblivious — they
// never branch on Ctx.Now or machine state (the recording Ctx panics on
// both) — and the recording PRNG is seeded exactly as Machine.Run seeds
// each thread's.
func Record(prog machine.Program, cfg param.Config) (*OpTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &OpTrace{
		TraceName: prog.Name() + ".trace",
		Pages:     prog.DataPages(),
		Ops:       make([][]machine.OpEvent, cfg.Nodes),
	}
	for p := range t.Ops {
		prog.Run(machine.NewRecordingCtx(p, cfg.Nodes, cfg.Seed, func(op machine.OpEvent) {
			op.Proc = p
			t.Ops[p] = append(t.Ops[p], op)
		}), p)
	}
	return t, nil
}

// opTraceMagic identifies the binary op-trace format.
var opTraceMagic = [8]byte{'N', 'W', 'O', 'P', 'S', '0', '0', '1'}

// opRecord is the fixed 26-byte wire form of one OpEvent
// (encoding/binary packs struct fields in order, without padding).
type opRecord struct {
	Kind   machine.OpKind
	Page   machine.PageID
	Sub    uint8
	Lines  uint16
	Write  bool
	Cycles int64
	Lock   int32
	Pages  int32
}

// Encode writes the trace in a compact binary format: the magic, the
// name (uint32 length + bytes), Pages, the stream count, then per
// stream an op count and its opRecords, all little-endian.
func (t *OpTrace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	for _, v := range []any{opTraceMagic, uint32(len(t.TraceName)), []byte(t.TraceName), t.Pages, uint32(len(t.Ops))} {
		if err := binary.Write(bw, le, v); err != nil {
			return err
		}
	}
	for _, ops := range t.Ops {
		if err := binary.Write(bw, le, uint64(len(ops))); err != nil {
			return err
		}
		for _, op := range ops {
			rec := opRecord{op.Kind, op.Page, uint8(op.Sub), uint16(op.Lines),
				op.Write, op.Cycles, int32(op.Lock), int32(op.Pages)}
			if err := binary.Write(bw, le, &rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadOpTrace decodes a binary op trace, rejecting any op a replay
// could not execute (see check).
func ReadOpTrace(r io.Reader) (*OpTrace, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var head struct {
		Magic   [8]byte
		NameLen uint32
	}
	if err := binary.Read(br, le, &head); err != nil {
		return nil, fmt.Errorf("workload: reading op-trace header: %w", err)
	}
	if head.Magic != opTraceMagic {
		return nil, fmt.Errorf("workload: bad op-trace magic %q", head.Magic)
	}
	if head.NameLen > 4096 {
		return nil, fmt.Errorf("workload: implausible name length %d", head.NameLen)
	}
	name := make([]byte, head.NameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var dims struct {
		Pages int64
		Procs uint32
	}
	if err := binary.Read(br, le, &dims); err != nil {
		return nil, err
	}
	if dims.Pages < 0 {
		return nil, fmt.Errorf("workload: negative page count %d", dims.Pages)
	}
	if dims.Procs > 1024 {
		return nil, fmt.Errorf("workload: implausible proc count %d", dims.Procs)
	}
	t := &OpTrace{TraceName: string(name), Pages: dims.Pages, Ops: make([][]machine.OpEvent, dims.Procs)}
	for p := range t.Ops {
		var count uint64
		if err := binary.Read(br, le, &count); err != nil {
			return nil, err
		}
		const maxOps = 1 << 30
		if count > maxOps {
			return nil, fmt.Errorf("workload: implausible op count %d", count)
		}
		// The count is untrusted: presize at most a small window and let
		// append grow the slice as ops actually arrive.
		ops := make([]machine.OpEvent, 0, min(int(count), 1<<16))
		for i := uint64(0); i < count; i++ {
			var rec opRecord
			if err := binary.Read(br, le, &rec); err != nil {
				return nil, fmt.Errorf("workload: proc %d op %d: %w", p, i, err)
			}
			op := machine.OpEvent{Proc: p, Kind: rec.Kind, Page: rec.Page,
				Sub: int(rec.Sub), Lines: int(rec.Lines), Write: rec.Write,
				Cycles: rec.Cycles, Lock: int(rec.Lock), Pages: int(rec.Pages)}
			if err := t.check(&op); err != nil {
				return nil, fmt.Errorf("workload: proc %d op %d: %w", p, i, err)
			}
			ops = append(ops, op)
		}
		t.Ops[p] = ops
	}
	return t, nil
}

// check rejects an operation a replay could not execute: an unknown
// kind, a touch outside the trace's footprint or a page's sub-blocks,
// or a negative file page, lock, page count or cycle count.
func (t *OpTrace) check(op *machine.OpEvent) error {
	switch op.Kind {
	case machine.OpTouch:
		if op.Page < 0 || int64(op.Page) >= t.Pages {
			return fmt.Errorf("touch of page %d outside [0, %d)", op.Page, t.Pages)
		}
		if op.Sub >= coherence.SubPerPage {
			return fmt.Errorf("touch of sub-block %d outside [0, %d)", op.Sub, coherence.SubPerPage)
		}
	case machine.OpCompute:
		if op.Cycles < 0 {
			return fmt.Errorf("negative cycle count %d", op.Cycles)
		}
	case machine.OpBarrier:
	case machine.OpLockAcquire, machine.OpLockRelease:
		if op.Lock < 0 {
			return fmt.Errorf("negative lock id %d", op.Lock)
		}
	case machine.OpFileRead, machine.OpFileWrite:
		if op.Page < 0 || op.Pages < 0 {
			return fmt.Errorf("file op at page %d for %d pages", op.Page, op.Pages)
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}
