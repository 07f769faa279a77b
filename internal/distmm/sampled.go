package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/sparse"
)

// This file compiles sampled mini-batch halo gathers into the Plan IR. A
// sampled batch's bottom aggregation layer is a rectangular block per rank:
// rows are the rank's layer-0 frontier, columns the global (permuted)
// vertex space whose feature rows are layout-distributed across ranks. The
// gather is therefore the sparsity-aware 1D exchange with a rectangular
// accumulator: each rank packs exactly the feature rows its peers' frontier
// blocks touch (NnzCols of the off-diagonal sub-blocks), one all-to-allv
// moves them, and compact relabeled blocks multiply the landed rows. Because
// the choreography is an ordinary Plan, sampled batches inherit byte-exact
// Volumes prediction, overlapped execution, static verification, and the
// abort protocol unchanged.
//
// Compiling the exchange requires every rank's frontier block — the
// determinism contract of the sampled trainer (seeded per rank × epoch ×
// step) lets every process derive all of them locally, so no index
// negotiation travels over the wire. A process does so once per step: the
// ranks it hosts share one SampledGather, recompiled by whichever of them
// reaches the step first (see Recompile for when that is safe).

// checkSampledInputs validates the sampled-gather constructor contract;
// violations panic (construction-time misuse).
func checkSampledInputs(w *comm.World, blocks []*sparse.CSR, layout Layout) {
	if layout.Blocks() != w.P {
		panic(fmt.Sprintf("distmm: layout has %d blocks for %d ranks", layout.Blocks(), w.P))
	}
	if len(blocks) != w.P {
		panic(fmt.Sprintf("distmm: %d frontier blocks for %d ranks", len(blocks), w.P))
	}
	for i, b := range blocks {
		if b.NumCols != layout.N() {
			panic(fmt.Sprintf("distmm: rank %d frontier block is %dx%d, layout n=%d", i, b.NumRows, b.NumCols, layout.N()))
		}
	}
}

// sampledSchedule derives the per-pair NnzCols structure of one batch's
// frontier blocks, exactly as buildNnzSchedule does for the square engines
// but over rectangular blocks. The plan compiler and the serial reference
// both consume it, so the exchanged indices and the accumulation blocks can
// never drift between the two.
func sampledSchedule(blocks []*sparse.CSR, layout Layout) *nnzSchedule {
	p := layout.Blocks()
	s := &nnzSchedule{
		recvIdx: make([][][]int, p),
		compact: make([][]*sparse.CSR, p),
		diag:    make([]*sparse.CSR, p),
	}
	parallelBlocks(p, func(i int) {
		s.recvIdx[i] = make([][]int, p)
		s.compact[i] = make([]*sparse.CSR, p)
		for j := 0; j < p; j++ {
			clo, chi := layout.Range(j)
			blk := blocks[i].ExtractBlock(sparse.ColRange{Lo: 0, Hi: blocks[i].NumRows}, sparse.ColRange{Lo: clo, Hi: chi})
			if j == i {
				s.diag[i] = blk
				continue
			}
			nnzCols := blk.NnzColsInRange(sparse.ColRange{Lo: 0, Hi: chi - clo})
			s.recvIdx[i][j] = nnzCols
			remap := make([]int, chi-clo)
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

// newSampledGatherPlan compiles the halo-gather schedule for one batch's
// frontier blocks: a rectangular sparsity-aware 1D plan whose accumulator
// heights are the per-rank frontier sizes.
func newSampledGatherPlan(w *comm.World, blocks []*sparse.CSR, layout Layout) *Plan {
	p := w.P
	plan := &Plan{
		name:        "sampled-gather",
		world:       w,
		layout:      layout,
		replication: 1,
		blockOf:     make([]int, p),
		outRows:     make([]int, p),
		inRows:      make([]int, p),
		gradGroups:  make([]*comm.Group, p),
		progs:       make([][]instr, p),
	}
	for i := 0; i < p; i++ {
		plan.blockOf[i] = i
		plan.outRows[i] = blocks[i].NumRows
		plan.inRows[i] = layout.Count(i)
		plan.gradGroups[i] = w.WorldGroup()
	}
	sched := sampledSchedule(blocks, layout)
	g := w.WorldGroup()
	for me := 0; me < p; me++ {
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
	return plan
}

// SampledGatherReference computes every rank's frontier aggregation of one
// batch serially, without a world, in the executor's exact per-rank
// accumulation order (diagonal block first, then peers in ascending rank
// order over the same compact relabeled blocks). A distributed execution of
// NewSampledGather over the same frontier blocks produces bit-identical
// outputs on any transport and exec mode — the reference conformance tests
// and the serial sampled trainer pin against. Shape violations panic
// (construction-time misuse).
func SampledGatherReference(blocks []*sparse.CSR, layout Layout, x *dense.Matrix) []*dense.Matrix {
	p := layout.Blocks()
	if len(blocks) != p {
		panic(fmt.Sprintf("distmm: %d frontier blocks for a %d-block layout", len(blocks), p))
	}
	if x.Rows != layout.N() {
		panic(fmt.Sprintf("distmm: features have %d rows, layout n=%d", x.Rows, layout.N()))
	}
	sched := sampledSchedule(blocks, layout)
	outs := make([]*dense.Matrix, p)
	for me := 0; me < p; me++ {
		out := dense.New(blocks[me].NumRows, x.Cols)
		mylo, myhi := layout.Range(me)
		sched.diag[me].SpMMAddInto(out, x.SliceRows(mylo, myhi))
		for j := 0; j < p; j++ {
			if j == me || len(sched.recvIdx[me][j]) == 0 {
				continue
			}
			clo, _ := layout.Range(j)
			land := dense.New(len(sched.recvIdx[me][j]), x.Cols)
			for pos, c := range sched.recvIdx[me][j] {
				copy(land.Row(pos), x.Row(clo+c))
			}
			sched.compact[me][j].SpMMAddInto(out, land)
		}
		outs[me] = out
	}
	return outs
}

// SampledGather is the compiled halo gather of one sampled mini-batch: each
// rank contributes its layout block of the distributed feature matrix and
// receives its frontier block of the aggregation — a rectangular Plan run by
// the shared executor. Recompile swaps in the next batch's frontier blocks
// while keeping the grown per-rank workspaces, so steady-state batches reuse
// buffers the way the full-batch engines do across epochs.
type SampledGather struct {
	plan *Plan
	ws   []*execWS
	mode ExecMode
}

// NewSampledGather compiles the gather plan for one batch's frontier
// blocks: blocks[i] is rank i's bottom-level sampled aggregation block,
// with rows over rank i's frontier and columns over the global (permuted)
// vertex space distributed by layout.
func NewSampledGather(w *comm.World, blocks []*sparse.CSR, layout Layout) *SampledGather {
	checkSampledInputs(w, blocks, layout)
	plan := newSampledGatherPlan(w, blocks, layout)
	return &SampledGather{plan: plan, ws: newExecWS(plan)}
}

// Recompile replaces the schedule with the next batch's frontier blocks,
// which the new plan does not retain. The per-rank workspaces persist: the
// all-to-allv group is always the full world, so the grown buffers stay
// valid and only resize upward. Must not be called concurrently with
// MultiplyInto: a gather shared by the hosted ranks is recompiled only once
// every rank has finished executing the previous plan — which any collective
// they all join after their MultiplyInto establishes.
func (e *SampledGather) Recompile(blocks []*sparse.CSR) {
	w, layout := e.plan.world, e.plan.layout
	checkSampledInputs(w, blocks, layout)
	e.plan = newSampledGatherPlan(w, blocks, layout)
}

// Plan returns the compiled schedule of the current batch.
func (e *SampledGather) Plan() *Plan { return e.plan }

// OutRows returns rank's frontier height (the gather's accumulator rows).
func (e *SampledGather) OutRows(rank int) int { return e.plan.outRows[rank] }

// SetExecMode selects the executor (sequential or overlapped). Must not be
// called concurrently with MultiplyInto.
func (e *SampledGather) SetExecMode(m ExecMode) { e.mode = m }

// MultiplyInto runs the gather collectively: hLocal is this rank's layout
// block of the distributed feature matrix (inRows × f), out its frontier
// block of the aggregation (outRows × f). Shape misuse panics, per the
// collective-call contract.
func (e *SampledGather) MultiplyInto(r *comm.Rank, hLocal, out *dense.Matrix) {
	wantIn, wantOut := e.plan.inRowsOf(r.ID), e.plan.outRows[r.ID]
	if hLocal.Rows != wantIn {
		panic(fmt.Sprintf("distmm: rank %d got %d H rows, owns %d", r.ID, hLocal.Rows, wantIn))
	}
	if out.Rows != wantOut || out.Cols != hLocal.Cols {
		panic(fmt.Sprintf("distmm: rank %d out %dx%d, want %dx%d", r.ID, out.Rows, out.Cols, wantOut, hLocal.Cols))
	}
	if len(out.Data) > 0 && len(hLocal.Data) > 0 && &out.Data[0] == &hLocal.Data[0] {
		panic(fmt.Sprintf("distmm: rank %d MultiplyInto out must not alias hLocal", r.ID))
	}
	if e.mode == ExecOverlap {
		e.plan.executeOverlap(r, hLocal, out, e.ws[r.ID])
		return
	}
	e.plan.execute(r, hLocal, out, e.ws[r.ID])
}
