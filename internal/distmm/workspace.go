package distmm

import (
	"sync/atomic"

	"sagnn/internal/dense"
)

// engineBuilds counts engine constructions process-wide. Tests use it to
// prove that reusing a distributed graph across training sessions performs
// the expensive block-extraction/NnzCols setup exactly once.
var engineBuilds atomic.Int64

// EngineBuilds returns the number of engines constructed so far.
func EngineBuilds() int64 { return engineBuilds.Load() }

// asMatrix repoints a persistent matrix header at (rows×cols, data) and
// returns it, avoiding the per-call header allocation of dense.FromSlice.
func asMatrix(hdr *dense.Matrix, rows, cols int, data []float64) *dense.Matrix {
	hdr.Rows, hdr.Cols, hdr.Data = rows, cols, data
	return hdr
}
