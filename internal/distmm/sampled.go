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
// gather is therefore Algorithm 1 itself, compiled by the same schedule
// builder and program writer as NewSparsityAware1D over a row source whose
// block row i is rank i's frontier block: each rank packs exactly the
// feature rows its peers' frontier blocks touch (NnzCols of the off-diagonal
// sub-blocks), one all-to-allv moves them, and compact relabeled blocks
// multiply the landed rows into an accumulator as tall as the frontier.
// Because the choreography is an ordinary Plan run by the shared engine,
// sampled batches inherit byte-exact Volumes prediction, overlapped
// execution, static verification, and the abort protocol unchanged.
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

// frontierRows is the sampled gather's row source: block row i is all of
// rank i's frontier block.
func frontierRows(blocks []*sparse.CSR) rowSource {
	return func(i int) (*sparse.CSR, int, int) { return blocks[i], 0, blocks[i].NumRows }
}

// newSampledGatherPlan compiles the halo-gather schedule for one batch's
// frontier blocks: Algorithm 1 on a rectangular 1D plan whose input heights
// are the layout blocks and whose accumulator heights are the frontiers.
func newSampledGatherPlan(w *comm.World, blocks []*sparse.CSR, layout Layout) *Plan {
	plan := new1DPlan("sampled-gather", w, layout)
	plan.inRows = make([]int, w.P)
	for i := range plan.inRows {
		plan.inRows[i] = layout.Count(i)
		plan.outRows[i] = blocks[i].NumRows
	}
	writeAlgorithm1(plan, buildNnzSchedule(frontierRows(blocks), layout))
	return plan
}

// SampledGatherReference computes every rank's frontier aggregation of one
// batch serially, without a world, in the executor's exact per-rank
// accumulation order (diagonal block first, then peers in ascending rank
// order over the same compact relabeled blocks). A distributed execution of
// NewSampledGather over the same frontier blocks produces bit-identical
// outputs on any transport and exec mode — the reference the gather and
// sampled-trainer tests pin against. Shape violations panic
// (construction-time misuse).
func SampledGatherReference(blocks []*sparse.CSR, layout Layout, x *dense.Matrix) []*dense.Matrix {
	p := layout.Blocks()
	if len(blocks) != p {
		panic(fmt.Sprintf("distmm: %d frontier blocks for a %d-block layout", len(blocks), p))
	}
	if x.Rows != layout.N() {
		panic(fmt.Sprintf("distmm: features have %d rows, layout n=%d", x.Rows, layout.N()))
	}
	sched := buildNnzSchedule(frontierRows(blocks), layout)
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
// receives its frontier block of the aggregation. It is the shared plan
// engine — the same executors, shape check and SetExecMode as the
// full-batch engines — plus Recompile, which swaps in the next batch's
// frontier blocks while keeping the grown per-rank workspaces, so
// steady-state batches reuse buffers the way the full-batch engines do
// across epochs.
type SampledGather struct {
	planEngine
}

// NewSampledGather compiles the gather plan for one batch's frontier
// blocks: blocks[i] is rank i's bottom-level sampled aggregation block,
// with rows over rank i's frontier and columns over the global (permuted)
// vertex space distributed by layout.
func NewSampledGather(w *comm.World, blocks []*sparse.CSR, layout Layout) *SampledGather {
	checkSampledInputs(w, blocks, layout)
	plan := newSampledGatherPlan(w, blocks, layout)
	return &SampledGather{planEngine{plan: plan, ws: newExecWS(plan)}}
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

// OutRows returns rank's frontier height (the gather's accumulator rows).
func (e *SampledGather) OutRows(rank int) int { return e.plan.outRows[rank] }
