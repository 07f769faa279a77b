package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/sparse"
)

// Engine is one rank-parallel distributed SpMM algorithm over a fixed
// sparse matrix. MultiplyInto is called collectively: every rank passes its
// own H block and receives its own Z block. Engines are safe for concurrent
// use by their world's ranks; each rank owns a private reusable workspace,
// so steady-state MultiplyInto calls do not allocate.
//
// Every engine is a compiled communication Plan plus the shared plan
// executor (see plan.go); Plan exposes the schedule for volume and cost
// prediction without data movement.
type Engine interface {
	Name() string
	// Layout returns the block-row distribution of the dense matrices.
	Layout() Layout
	// BlockOf returns the block-row index owned by a world rank.
	BlockOf(rank int) int
	// Plan returns the engine's compiled communication schedule.
	Plan() *Plan
	// MultiplyInto computes this rank's block of Aᵀ·H into out. hLocal must
	// have Layout().Count(BlockOf(rank)) rows; out must have as many rows
	// and hLocal's width, and must not alias hLocal.
	MultiplyInto(r *comm.Rank, hLocal, out *dense.Matrix)
	// GradGroup returns the group over which block-row-partial reductions
	// (weight gradients, loss terms) must be summed to obtain the global
	// value exactly once: the world for 1D layouts, the process column for
	// 1.5D grids (each column holds every block row exactly once).
	GradGroup(rank int) *comm.Group
	// SetExecMode selects the executor: ExecSequential (stage by stage) or
	// ExecOverlap (double-buffered comm/compute pipelining, bit-identical
	// outputs and volumes, pipelined time accounting). Engine-wide, so every
	// rank of a collective runs the same mode; must not be called
	// concurrently with MultiplyInto.
	SetExecMode(m ExecMode)
}

// checkMultiplyShapes validates the collective-call contract shared by all
// plans: hLocal holds this rank's inRows input rows, out is outRows rows of
// hLocal's width, and out does not alias hLocal (every plan reads hLocal
// after writing out). The square engines pass equal heights; a sampled
// gather's output height is the rank's frontier. Violations panic — shape
// misuse is a caller bug, not a rank failure the abort protocol should
// absorb.
func checkMultiplyShapes(rank, inRows, outRows int, hLocal, out *dense.Matrix) {
	if hLocal.Rows != inRows {
		panic(fmt.Sprintf("distmm: rank %d got %d H rows, owns %d", rank, hLocal.Rows, inRows))
	}
	if out.Rows != outRows || out.Cols != hLocal.Cols {
		panic(fmt.Sprintf("distmm: rank %d out %dx%d, want %dx%d", rank, out.Rows, out.Cols, outRows, hLocal.Cols))
	}
	if len(out.Data) > 0 && len(hLocal.Data) > 0 && &out.Data[0] == &hLocal.Data[0] {
		panic(fmt.Sprintf("distmm: rank %d MultiplyInto out must not alias hLocal", rank))
	}
}

// check1DInputs validates the shared 1D constructor contract; violations
// panic (construction-time misuse — NewEngine wraps this in a typed error).
func check1DInputs(w *comm.World, aT *sparse.CSR, layout Layout) {
	if layout.Blocks() != w.P {
		panic(fmt.Sprintf("distmm: layout has %d blocks for %d ranks", layout.Blocks(), w.P))
	}
	if layout.N() != aT.NumRows || aT.NumRows != aT.NumCols {
		panic(fmt.Sprintf("distmm: matrix %dx%d does not match layout n=%d", aT.NumRows, aT.NumCols, layout.N()))
	}
}

// new1DPlan allocates the per-rank metadata every 1D plan shares: rank i
// owns block row i and reduces gradients over the whole world.
func new1DPlan(name string, w *comm.World, layout Layout) *Plan {
	p := w.P
	plan := &Plan{
		name:        name,
		world:       w,
		layout:      layout,
		replication: 1,
		blockOf:     make([]int, p),
		outRows:     make([]int, p),
		gradGroups:  make([]*comm.Group, p),
		progs:       make([][]instr, p),
	}
	for i := 0; i < p; i++ {
		plan.blockOf[i] = i
		plan.outRows[i] = layout.Count(i)
		plan.gradGroups[i] = w.WorldGroup()
	}
	return plan
}

// NewOblivious1D compiles CAGNET's sparsity-oblivious 1D algorithm: in every
// multiply, each process broadcasts its full H block to all others
// regardless of the sparsity structure. aT (the global n×n sparse matrix,
// already permuted if a partitioner was used) is split into P×P blocks for
// the given layout.
func NewOblivious1D(w *comm.World, aT *sparse.CSR, layout Layout) Engine {
	check1DInputs(w, aT, layout)
	blocks := layoutRows(aT, layout).split(layout) // [rank][j] = A^T_{rank,j}
	plan := new1DPlan("oblivious-1d", w, layout)
	g := w.WorldGroup()
	for me := 0; me < w.P; me++ {
		prog := make([]instr, 0, w.P)
		// P broadcasts, one per block row of H, each followed by a local
		// SpMM with the matching column block.
		for j := 0; j < w.P; j++ {
			prog = append(prog, instr{op: opBcastMul, group: g, root: j, own: j == me, rows: layout.Count(j), blk: blocks[me][j]})
		}
		plan.progs[me] = prog
	}
	return newPlanEngine(plan)
}

// rowSource is the sparse operand a plan compiles from, by block row: block
// row i is rows [lo, hi) of src. For the square engines src is Âᵀ and the
// range is layout block i; for a sampled gather src is rank i's frontier
// block, whole.
type rowSource func(i int) (src *sparse.CSR, lo, hi int)

// layoutRows is the square engines' row source: block row i is layout block
// i of aT.
func layoutRows(aT *sparse.CSR, layout Layout) rowSource {
	return func(i int) (*sparse.CSR, int, int) {
		lo, hi := layout.Range(i)
		return aT, lo, hi
	}
}

// splitRow cuts block row i into one block per layout column range: block j
// holds the row's entries in columns layout.Range(j), rebased to the range.
// It reads the rows in place, so no block row is copied first.
func (rows rowSource) splitRow(i int, layout Layout) []*sparse.CSR {
	src, lo, hi := rows(i)
	blocks := make([]*sparse.CSR, layout.Blocks())
	for j := range blocks {
		clo, chi := layout.Range(j)
		blocks[j] = src.ExtractBlock(sparse.ColRange{Lo: lo, Hi: hi}, sparse.ColRange{Lo: clo, Hi: chi})
	}
	return blocks
}

// split cuts every block row (one per layout block), in parallel across
// block rows: blocks[i][j] is block row i's column block j.
func (rows rowSource) split(layout Layout) [][]*sparse.CSR {
	blocks := make([][]*sparse.CSR, layout.Blocks())
	parallelBlocks(len(blocks), func(i int) { blocks[i] = rows.splitRow(i, layout) })
	return blocks
}

// nnzSchedule is the sparsity-aware NnzCols structure for one block
// partition: recvIdx[i][j] lists the (j-local) rows of H_j block row i
// needs, and compact[i][j] is block (i, j) with columns relabeled to
// positions in recvIdx[i][j] so received rows multiply without scattering;
// diag[i] is the full-width diagonal block.
type nnzSchedule struct {
	recvIdx [][][]int
	compact [][]*sparse.CSR
	diag    []*sparse.CSR
}

// buildNnzSchedule computes the NnzCols structure for every block pair of
// rows split along layout, parallelized across block rows. The paper
// performs this as a cheap preprocessing step excluded from training time;
// here it is computed directly from the global operand. The engines, the
// sampled gather and its serial reference all consume it, so the exchanged
// indices and the accumulation blocks cannot drift between them.
func buildNnzSchedule(rows rowSource, layout Layout) *nnzSchedule {
	k := layout.Blocks()
	s := &nnzSchedule{
		recvIdx: make([][][]int, k),
		compact: make([][]*sparse.CSR, k),
		diag:    make([]*sparse.CSR, k),
	}
	parallelBlocks(k, func(i int) {
		s.recvIdx[i] = make([][]int, k)
		s.compact[i] = make([]*sparse.CSR, k)
		for j, blk := range rows.splitRow(i, layout) {
			if j == i {
				s.diag[i] = blk
				continue
			}
			nnzCols := blk.NnzColsInRange(sparse.ColRange{Lo: 0, Hi: blk.NumCols})
			s.recvIdx[i][j] = nnzCols
			remap := make([]int, blk.NumCols)
			for x := range remap {
				remap[x] = -1
			}
			for pos, c := range nnzCols {
				remap[c] = pos
			}
			s.compact[i][j] = blk.RelabelCols(remap, len(nnzCols))
		}
	})
	return s
}

// writeAlgorithm1 writes the paper's Algorithm 1 over sched into every
// rank's program of a 1D plan: one all-to-allv moving exactly the NnzCols
// rows each peer needs, the diagonal block against hLocal, one multiply per
// peer that sent rows, and the unpack charge. NewSparsityAware1D and the
// sampled gather both compile through it.
func writeAlgorithm1(plan *Plan, sched *nnzSchedule) {
	p := len(plan.progs)
	g := plan.world.WorldGroup()
	for me := 0; me < p; me++ {
		// sendIdx[j] lists the (me-local) rows of H_me that peer j needs —
		// recvIdx[j][me], read off the schedule for the pack step.
		sendIdx := make([][]int, p)
		recvRows := make([]int, p)
		for j := 0; j < p; j++ {
			if j == me {
				continue
			}
			sendIdx[j] = sched.recvIdx[j][me]
			recvRows[j] = len(sched.recvIdx[me][j])
		}
		prog := make([]instr, 0, p+3)
		prog = append(prog, instr{op: opAllToAllv, group: g, slot: me, sendIdx: sendIdx, recvRows: recvRows})
		prog = append(prog, instr{op: opMulOwn, blk: sched.diag[me]})
		for j := 0; j < p; j++ {
			if j == me || len(sched.recvIdx[me][j]) == 0 {
				continue
			}
			prog = append(prog, instr{op: opMulRecvSlot, slot: j, rows: len(sched.recvIdx[me][j]), blk: sched.compact[me][j]})
		}
		prog = append(prog, instr{op: opChargeUnpack})
		plan.progs[me] = prog
	}
}

// NewSparsityAware1D compiles the paper's Algorithm 1. Setup computes
// NnzCols(i, j) — the rows of H_j the off-diagonal block A^T_{ij} actually
// touches — and the compiled plan exchanges exactly those rows with a single
// all-to-allv per multiply.
func NewSparsityAware1D(w *comm.World, aT *sparse.CSR, layout Layout) Engine {
	check1DInputs(w, aT, layout)
	plan := new1DPlan("sparsity-aware-1d", w, layout)
	writeAlgorithm1(plan, buildNnzSchedule(layoutRows(aT, layout), layout))
	return newPlanEngine(plan)
}
