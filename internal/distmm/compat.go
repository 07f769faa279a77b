package distmm

// ExecMode, its two constants and Engine.SetExecMode are a compatibility
// shim: there is one plan executor, Plan.execute, and the benchmark module
// still compiles against these names. SetExecMode changes nothing, so an
// engine set to ExecOverlap runs, moves and charges exactly what an
// ExecSequential one does.

// ExecMode names a plan executor.
type ExecMode uint8

const (
	// ExecSequential is the plan executor.
	ExecSequential ExecMode = iota
	// ExecOverlap runs the same executor as ExecSequential.
	ExecOverlap
)

// SetExecMode implements Engine. It is a no-op.
func (e *planEngine) SetExecMode(ExecMode) {}
