package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/par"
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
	// SetExecMode does nothing; it is kept for callers that still name an
	// executor (compat.go).
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

// new1DPlan allocates the per-rank metadata every 1D plan shares.
func new1DPlan(name string, w *comm.World, layout Layout) *Plan {
	return init1DPlan(new(Plan), name, w, layout)
}

// init1DPlan writes into plan the per-rank metadata every 1D plan shares:
// rank i owns block row i and reduces gradients over the whole world. The
// arrays are plan's own, grown to the world, so a plan written again (a
// sampled gather's compile arena) keeps them, and its programs' storage for
// writeAlgorithm1 to reuse.
func init1DPlan(plan *Plan, name string, w *comm.World, layout Layout) *Plan {
	p := w.P
	plan.name, plan.world, plan.layout, plan.replication = name, w, layout, 1
	blockOf, outRows, groups := dense.Grow(&plan.blockOf, p), dense.Grow(&plan.outRows, p), dense.Grow(&plan.gradGroups, p)
	dense.Grow(&plan.progs, p)
	for i := 0; i < p; i++ {
		blockOf[i], outRows[i], groups[i] = i, layout.Count(i), w.WorldGroup()
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

// split cuts every block row (one per layout block) into one block per
// layout column range, in parallel across block rows: blocks[i][j] holds
// block row i's entries in columns layout.Range(j), rebased to the range.
// It reads the rows in place, so no block row is copied first.
func (rows rowSource) split(layout Layout) [][]*sparse.CSR {
	blocks := make([][]*sparse.CSR, layout.Blocks())
	par.For(len(blocks), func(i int) {
		src, lo, hi := rows(i)
		blocks[i] = make([]*sparse.CSR, layout.Blocks())
		for j := range blocks[i] {
			clo, chi := layout.Range(j)
			blocks[i][j] = src.ExtractBlock(sparse.ColRange{Lo: lo, Hi: hi}, sparse.ColRange{Lo: clo, Hi: chi})
		}
	})
	return blocks
}

// nnzSchedule is the sparsity-aware NnzCols structure for one block
// partition: recvIdx[i][j] lists the (j-local) rows of H_j block row i
// needs, diag[i] is the full-width diagonal block, haloAt[i] stacks block
// row i's received rows by peer — peer j's at halo rows [haloAt[i][j],
// haloAt[i][j+1]) — and halo[i] is the row's off-diagonal entries with
// their columns relabeled to those halo rows, the operand the local sweep
// multiplies against the stacked rows; nnz[i][j] counts its entries in
// peer j's slot (0 on the diagonal). Peer j's block alone, its columns
// relabeled to positions in recvIdx[i][j], is the halo's slot j, and a
// range of peers' blocks is a range of slots (slots).
//
// A schedule is also the arena it is built in: rows[i] holds every array
// of block row i, and a build into a schedule that held another overwrites
// them in place, growing only those too short (dense.Grow).
type nnzSchedule struct {
	recvIdx [][][]int
	diag    []*sparse.CSR
	haloAt  [][]int
	halo    []*sparse.CSR
	nnz     [][]int
	rows    []schedRow
}

// schedRow is the storage of one block row of a schedule: its peers' row
// lists (recvIdx, cut from idx), halo offsets and slot counts, and its
// diagonal block and merged halo operand, whose arrays share rowPtr,
// colIdx and val.
type schedRow struct {
	recvIdx        [][]int
	at, nnz, idx   []int
	rowPtr, colIdx []int
	val            []float64
	diag, halo     sparse.CSR
}

// buildNnzSchedule computes the NnzCols structure for every block row of
// rows split along layout into s, in parallel across block rows, and
// returns s. The paper computes it once, as preprocessing outside training
// time, and so do the full-batch engines, at set-up, each into a fresh
// schedule; but the sampled gather builds it inside every training step
// (Recompile), into one of the two schedules it keeps, so a warmed step
// writes the arrays the step before last wrote. So it is two passes over
// each block row and nothing per block: a marking pass counts each
// off-diagonal column's entries, and an emitting pass writes the diagonal
// block and the halo straight from the row. Rows must keep their columns
// sorted (the CSR invariant), which makes the halo's entries of a row
// ascend by slot. The engines, the sampled gather and its serial reference
// all consume the schedule, so the exchanged indices and the accumulation
// blocks cannot drift between them.
//
// marks is the marking scratch, which a caller that builds every step
// keeps; nil makes one for this build.
func buildNnzSchedule(rows rowSource, layout Layout, marks scheduleMarks, s *nnzSchedule) *nnzSchedule {
	k := layout.Blocks()
	if marks == nil {
		marks = newScheduleMarks()
	}
	dense.Grow(&s.recvIdx, k)
	dense.Grow(&s.diag, k)
	dense.Grow(&s.haloAt, k)
	dense.Grow(&s.halo, k)
	dense.Grow(&s.nnz, k)
	dense.Grow(&s.rows, k)
	par.For(k, func(i int) {
		mark := marks.get(layout.N())
		s.buildRow(i, rows, layout, mark)
		marks.put(mark)
	})
	return s
}

// scheduleMarks is buildNnzSchedule's marking scratch for one layout: a
// free list of zeroed arrays, one entry per column of the operand, taken by
// each block row in flight and handed back zeroed. A buffered channel, like
// dense's panel list, so a warm build takes and returns them without
// allocating; its par.Workers() slots hold one for every block row par.For
// runs at once, so the scratch is bounded by the worker count, not by the
// block count.
type scheduleMarks chan []int

func newScheduleMarks() scheduleMarks { return make(scheduleMarks, par.Workers()) }

// get returns a zeroed array of n entries, a kept one if the list holds one.
func (m scheduleMarks) get(n int) []int {
	select {
	case mark := <-m:
		return mark
	default:
		return make([]int, n)
	}
}

// put hands a zeroed array back, or leaves it to the GC when the list is
// full.
func (m scheduleMarks) put(mark []int) {
	select {
	case m <- mark:
	default:
	}
}

// buildRow writes block row i of the schedule. mark[c] first counts the
// row's entries in off-diagonal column c; the slot scan then turns each
// marked count into the column's halo row, which the emitting pass reads,
// and the columns are zeroed once the row is written.
func (s *nnzSchedule) buildRow(i int, rows rowSource, layout Layout, mark []int) {
	src, lo, hi := rows(i)
	k := layout.Blocks()
	mlo, mhi := layout.Range(i)
	begin, end := src.RowPtr[lo], src.RowPtr[hi]
	diagNNZ, width := 0, 0
	for _, c := range src.ColIdx[begin:end] {
		switch {
		case c >= mlo && c < mhi:
			diagNNZ++
		case mark[c] == 0:
			width++
			fallthrough
		default:
			mark[c]++
		}
	}

	st := &s.rows[i]
	recvIdx, at, nnz := dense.Grow(&st.recvIdx, k), dense.Grow(&st.at, k+1), dense.Grow(&st.nnz, k)
	clear(nnz)
	idx := dense.Grow(&st.idx, width)[:0]
	for j := 0; j < k; j++ {
		at[j] = len(idx)
		if j == i {
			recvIdx[j] = nil
			continue
		}
		clo, chi := layout.Range(j)
		first := len(idx)
		for c := clo; c < chi; c++ {
			if m := mark[c]; m > 0 {
				nnz[j] += m
				mark[c] = len(idx)
				idx = append(idx, c-clo)
			}
		}
		recvIdx[j] = idx[first:len(idx):len(idx)]
	}
	at[k] = len(idx)

	// One array of each kind backs both blocks, each block's part capped so
	// neither can grow into the other. Both row pointers start at 0, which
	// an array the last build wrote need not hold.
	n, nnzAll := hi-lo, end-begin
	rowPtr, colIdx, val := dense.Grow(&st.rowPtr, 2*(n+1)), dense.Grow(&st.colIdx, nnzAll), dense.Grow(&st.val, nnzAll)
	rowPtr[0], rowPtr[n+1] = 0, 0
	st.diag = sparse.CSR{NumRows: n, NumCols: mhi - mlo,
		RowPtr: rowPtr[: n+1 : n+1], ColIdx: colIdx[:diagNNZ:diagNNZ], Val: val[:diagNNZ:diagNNZ]}
	st.halo = sparse.CSR{NumRows: n, NumCols: len(idx),
		RowPtr: rowPtr[n+1:], ColIdx: colIdx[diagNNZ:], Val: val[diagNNZ:]}
	diag, halo := &st.diag, &st.halo
	d, h := 0, 0
	for r := lo; r < hi; r++ {
		for p := src.RowPtr[r]; p < src.RowPtr[r+1]; p++ {
			if c := src.ColIdx[p]; c >= mlo && c < mhi {
				diag.ColIdx[d], diag.Val[d] = c-mlo, src.Val[p]
				d++
			} else {
				halo.ColIdx[h], halo.Val[h] = mark[c], src.Val[p]
				h++
			}
		}
		diag.RowPtr[r-lo+1], halo.RowPtr[r-lo+1] = d, h
	}
	for j, cols := range recvIdx {
		clo, _ := layout.Range(j)
		for _, c := range cols {
			mark[clo+c] = 0
		}
	}
	s.recvIdx[i], s.diag[i], s.haloAt[i], s.halo[i], s.nnz[i] = recvIdx, diag, at, halo, nnz
}

// slots returns block row i's peer blocks lo through hi−1 merged side by
// side, their columns relabeled to positions in recvIdx[i][lo..hi): the
// halo's columns [haloAt[i][lo], haloAt[i][hi]), rebased (block i's own
// slot, when in range, is empty). The 1.5D engine's exchange takes its
// column's range of peers at once; the serial reference multiplies one
// peer's block at a time, slots(i, j, j+1).
func (s *nnzSchedule) slots(i, lo, hi int) *sparse.CSR {
	h, at := s.halo[i], s.haloAt[i]
	return h.ExtractBlock(sparse.ColRange{Lo: 0, Hi: h.NumRows}, sparse.ColRange{Lo: at[lo], Hi: at[hi]})
}

// writeAlgorithm1 writes the paper's Algorithm 1 over sched into every
// rank's program of a 1D plan as two instructions: one all-to-allv moving
// exactly the NnzCols rows each peer needs into the rank's halo, and the
// local sweep (opMulOwn), which multiplies the diagonal block against
// hLocal and the peers' blocks, merged side by side, against the halo in
// one pass (plan.go). The exchange carries each peer slot's halo rows, its
// nonzero count, which the sweep charges, and, for a sampled step, its
// split against the ranks' resident stores: fills (sampled.go), when
// non-nil, makes the exchange move only the rows fills[i][j] ships, and the
// sweep assembles the rest from the store. NewSparsityAware1D passes nil;
// the sampled gather compiles through it too.
//
// The programs are written into the storage plan's programs already hold,
// so a plan written again (a sampled gather's compile arena) allocates
// nothing here.
func writeAlgorithm1(plan *Plan, sched *nnzSchedule, fills [][]slotFill) {
	p := len(plan.progs)
	g := plan.world.WorldGroup()
	for me := 0; me < p; me++ {
		prog := dense.Grow(&plan.progs[me], 2)
		// sendIdx[j] lists the (me-local) rows of H_me that peer j needs —
		// recvIdx[j][me], read off the schedule for the pack step.
		sendIdx, recvRows := dense.Grow(&prog[0].sendIdx, p), dense.Grow(&prog[0].recvRows, p)
		for j := 0; j < p; j++ {
			switch {
			case j == me:
				sendIdx[j], recvRows[j] = nil, 0
			case fills != nil:
				sendIdx[j] = fills[j][me].ship
				recvRows[j] = len(fills[me][j].ship)
			default:
				sendIdx[j] = sched.recvIdx[j][me]
				recvRows[j] = len(sched.recvIdx[me][j])
			}
		}
		prog[0] = instr{op: opAllToAllv, group: g, slot: me, sendIdx: sendIdx, recvRows: recvRows,
			at: sched.haloAt[me], halo: sched.halo[me], nnz: sched.nnz[me]}
		if fills != nil {
			prog[0].fills = fills[me]
		}
		prog[1] = instr{op: opMulOwn, blk: sched.diag[me]}
	}
}

// NewSparsityAware1D compiles the paper's Algorithm 1. Setup computes
// NnzCols(i, j) — the rows of H_j the off-diagonal block A^T_{ij} actually
// touches — and the compiled plan exchanges exactly those rows with a single
// all-to-allv per multiply.
func NewSparsityAware1D(w *comm.World, aT *sparse.CSR, layout Layout) Engine {
	check1DInputs(w, aT, layout)
	plan := new1DPlan("sparsity-aware-1d", w, layout)
	writeAlgorithm1(plan, buildNnzSchedule(layoutRows(aT, layout), layout, nil, new(nnzSchedule)), nil)
	return newPlanEngine(plan)
}
