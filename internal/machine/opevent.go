package machine

// OpKind identifies an application-level operation a recording Ctx
// captures (see NewRecordingCtx).
type OpKind uint8

// Application operation kinds.
const (
	OpTouch OpKind = iota
	OpCompute
	OpBarrier
	OpLockAcquire
	OpLockRelease
	OpFileRead
	OpFileWrite
)

// OpEvent is one application operation as captured by a recording Ctx.
type OpEvent struct {
	Proc   int
	Kind   OpKind
	Page   PageID // OpTouch/OpFileRead/OpFileWrite
	Sub    int    // OpTouch
	Lines  int    // OpTouch
	Write  bool   // OpTouch
	Cycles int64  // OpCompute
	Lock   int    // OpLockAcquire/OpLockRelease
	Pages  int    // OpFileRead/OpFileWrite
}
