package core

// The read fast path (Config.ReadFastPath, DESIGN.md §3.5) is the epoch
// check in Read (core.go): the trace bumps a publication epoch on every
// linearize stage, and a read whose handle has already validated its
// view against the current epoch skips the trace walk entirely. A
// handle that misses catches up by walking (advanceView); nothing is
// shared between handles' views.

// epochNever marks a handle whose view has not been validated against
// any trace epoch (fresh or freshly recovered); the first read always
// takes the walk. Publication epochs count up from zero and cannot
// reach it.
const epochNever = ^uint64(0)

// FastPathStats is constant zero: the shared published-view slots it
// counted are gone (DESIGN.md §3.6). Kept only because bench/ reads
// these three fields; the next benchmark PR drops the type.
type FastPathStats struct {
	Publishes uint64
	SlotReads uint64
	Adoptions uint64
}

// FastPathStats implements the accessor on Instance.
func (in *Instance) FastPathStats() FastPathStats { return FastPathStats{} }
