package distmm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sagnn/internal/dense"
)

// engineBuilds counts engine constructions process-wide. Tests use it to
// prove that reusing a distributed graph across training sessions performs
// the expensive block-extraction/NnzCols setup exactly once.
var engineBuilds atomic.Int64

// EngineBuilds returns the number of engines constructed so far.
func EngineBuilds() int64 { return engineBuilds.Load() }

// growFloats returns a length-n slice backed by *buf, reallocating the
// backing array only when capacity is exceeded. Engines keep one such
// buffer per rank per role (pack, receive, partial-sum), so steady-state
// MultiplyInto calls stop allocating once the first call has sized them.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// asMatrix repoints a persistent matrix header at (rows×cols, data) and
// returns it, avoiding the per-call header allocation of dense.FromSlice.
func asMatrix(hdr *dense.Matrix, rows, cols int, data []float64) *dense.Matrix {
	hdr.Rows, hdr.Cols, hdr.Data = rows, cols, data
	return hdr
}

// parallelBlocks runs fn(i) for every i in [0, n) across up to GOMAXPROCS
// goroutines. The engine constructors use it to parallelize their
// per-block-row setup (ExtractBlock / NnzColsInRange / RelabelCols), which
// is otherwise a serial O(P²) scan of the global matrix. Each fn(i) must
// write only block row i's state, so the result is deterministic.
func parallelBlocks(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
