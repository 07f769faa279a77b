package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/par"
	"sagnn/internal/sparse"
)

// This file compiles sampled mini-batch halo gathers into the Plan IR. A
// sampled batch's bottom aggregation layer is a rectangular block per rank:
// rows are the rank's layer-0 frontier, columns the global (permuted)
// vertex space whose feature rows are layout-distributed across ranks. The
// gather is therefore Algorithm 1 itself, compiled by the same schedule
// builder and program writer as NewSparsityAware1D over a row source whose
// block row i is rank i's frontier block: each rank packs the feature rows
// its peers' frontier blocks touch (NnzCols of the off-diagonal sub-blocks),
// one all-to-allv moves them, and compact relabeled blocks multiply the
// landed rows into an accumulator as tall as the frontier. Because the
// choreography is an ordinary Plan run by the shared engine, sampled batches
// inherit byte-exact Volumes prediction, static verification, and the
// abort protocol unchanged.
//
// The features are static, so a row need cross the wire to a rank only
// once. Each rank keeps the remote rows it receives in a grow-only resident
// store of at most its own row count, first come first kept, never evicted;
// a step ships a peer only the rows its store does not hold yet. The
// multiply still sees a full slot: each landing slot is assembled in the
// compact block's column order, resident rows from the store and new ones
// from the wire, so every product keeps its values and order and only bytes
// change. Store positions are assigned when a step compiles, which makes the
// stores after step t a function of the steps compiled before it. The stores
// are append-only, so Resident's count marks a state and Rewind truncates
// back to it: the sampled trainer rewinds to a step's mark whenever it
// derives that step again (an abort retry, a recovery replay, a restore),
// so a replay ships what the first run shipped, and after an aborted launch
// it drops the last step's rows, which may not have landed everywhere.
//
// Compiling the exchange requires every rank's frontier block and resident
// set — the determinism contract of the sampled trainer (seeded per rank ×
// epoch × step) lets every process derive all of them locally, so no index
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
// frontier blocks against the resident stores rs, and advances rs past it:
// Algorithm 1 on a rectangular 1D plan whose input heights are the layout
// blocks, whose accumulator heights are the frontiers, and whose exchange
// ships only the rows not yet resident at their destination.
func newSampledGatherPlan(w *comm.World, blocks []*sparse.CSR, layout Layout, rs *residentStores) *Plan {
	plan := new1DPlan("sampled-gather", w, layout)
	plan.inRows = make([]int, w.P)
	plan.store = make([]int, w.P)
	for i := range plan.inRows {
		plan.inRows[i] = layout.Count(i)
		plan.outRows[i] = blocks[i].NumRows
	}
	sched := buildNnzSchedule(frontierRows(blocks), layout)
	fills := rs.advance(sched.recvIdx, layout)
	for i := range plan.store {
		plan.store[i] = len(rs.sets[i].rows)
	}
	writeAlgorithm1(plan, sched, fills)
	return plan
}

// slotFill is one landing slot (i, j) of a sampled step split against rank
// i's resident store: ship lists the j-local rows peer j sends (the slot's
// rows i does not hold), fill maps each slot row to its source (nil when
// ship is the whole slot), and the first keep shipped rows join i's store at
// rows [storeAt, storeAt+keep).
type slotFill struct {
	ship          []int
	fill          []int
	storeAt, keep int
}

// residentSet indexes one rank's resident store: rows[pos] is the global
// feature row at store row pos, and pos maps it back. Both hold at most the
// rank's own row count, so all ranks' together are O(n).
type residentSet struct {
	rows []int
	pos  map[int]int
}

func newResidentSet(capacity int) residentSet {
	return residentSet{rows: make([]int, 0, capacity), pos: make(map[int]int, capacity)}
}

// add makes g resident at the next store row; the caller checks capacity.
func (s *residentSet) add(g int) {
	s.pos[g] = len(s.rows)
	s.rows = append(s.rows, g)
}

// pop forgets the row added last.
func (s *residentSet) pop() {
	last := len(s.rows) - 1
	delete(s.pos, s.rows[last])
	s.rows = s.rows[:last]
}

// residentStores is the compile-time state of every rank's resident store:
// the per-rank index, and log, the rank each resident row joined in the
// order they joined — so the total resident count marks a state and
// truncating the log rewinds to it.
type residentStores struct {
	sets []residentSet
	log  []int
}

func newResidentStores(layout Layout) *residentStores {
	rs := &residentStores{sets: make([]residentSet, layout.Blocks())}
	for i := range rs.sets {
		rs.sets[i] = newResidentSet(layout.Count(i))
	}
	return rs
}

// rewind forgets every resident row past the first n.
func (rs *residentStores) rewind(n int) {
	for len(rs.log) > n {
		last := len(rs.log) - 1
		rs.sets[rs.log[last]].pop()
		rs.log = rs.log[:last]
	}
}

// advance splits every landing slot of one step (recvIdx, the step's
// NnzCols schedule) against the resident stores and makes the shipped rows
// resident while their destination's store has room. fills[i][j] is slot
// (i, j).
func (rs *residentStores) advance(recvIdx [][][]int, layout Layout) [][]slotFill {
	fills := make([][]slotFill, len(recvIdx))
	par.For(len(recvIdx), func(i int) { fills[i] = rs.sets[i].split(recvIdx[i], i, layout) })
	for i := range fills {
		for _, fl := range fills[i] {
			for k := 0; k < fl.keep; k++ {
				rs.log = append(rs.log, i)
			}
		}
	}
	return fills
}

// split splits rank me's landing slots (its NnzCols rows by peer) against
// its store, then keeps the shipped rows while the store has room, first
// come first kept. Peers come in cyclic order from me+1 and rows in
// ascending order: once stores fill, each sender is some rank's first peer,
// so the room left is shared across senders rather than spent on rank 0's
// rows everywhere, which would leave the highest rank shipping all it did.
func (s *residentSet) split(recvIdx [][]int, me int, layout Layout) []slotFill {
	fills := make([]slotFill, len(recvIdx))
	// One array backs every fill map and ship list of the step; nothing is
	// resident in an empty store, so that step needs none.
	var buf []int
	if len(s.rows) > 0 {
		n := 0
		for _, idx := range recvIdx {
			n += len(idx)
		}
		buf = make([]int, 2*n)
	}
	for d := 1; d < len(recvIdx); d++ {
		j := (me + d) % len(recvIdx)
		idx := recvIdx[j]
		if len(idx) == 0 {
			continue
		}
		lo, _ := layout.Range(j)
		fl := &fills[j]
		fl.ship = idx
		if buf != nil {
			fill, ship := buf[:len(idx):len(idx)], buf[len(idx):len(idx):2*len(idx)]
			buf = buf[2*len(idx):]
			for k, c := range idx {
				if pos, ok := s.pos[lo+c]; ok {
					fill[k] = -1 - pos
				} else {
					fill[k] = len(ship)
					ship = append(ship, c)
				}
			}
			if len(ship) < len(idx) {
				fl.ship, fl.fill = ship, fill
			}
		}
		fl.storeAt = len(s.rows)
		fl.keep = min(len(fl.ship), layout.Count(me)-len(s.rows))
		for _, c := range fl.ship[:fl.keep] {
			s.add(lo + c)
		}
	}
	return fills
}

// SampledGatherReference computes every rank's frontier aggregation of one
// batch serially, without a world, in the executor's exact per-rank
// accumulation order (diagonal block first, then peers in ascending rank
// order over the same compact relabeled blocks). A distributed execution of
// NewSampledGather over the same frontier blocks produces bit-identical
// outputs on any transport — the reference the gather and sampled-trainer
// tests pin against. Shape violations panic (construction-time misuse).
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
// engine — the same executor and shape check as the full-batch engines —
// plus the ranks' resident stores and Recompile, which swaps in the next
// batch's frontier blocks while keeping the grown per-rank workspaces, so
// steady-state batches reuse buffers the way the full-batch engines do
// across epochs.
//
// The stores hold rows of the feature slices earlier calls multiplied, so
// every MultiplyInto must pass each rank the same (static) feature slice, at
// the same width, and run the plans in the order they were compiled.
type SampledGather struct {
	planEngine
	resident *residentStores
}

// NewSampledGather compiles the gather plan for one batch's frontier
// blocks: blocks[i] is rank i's bottom-level sampled aggregation block,
// with rows over rank i's frontier and columns over the global (permuted)
// vertex space distributed by layout. The stores start empty, so the first
// plan ships every row it names.
func NewSampledGather(w *comm.World, blocks []*sparse.CSR, layout Layout) *SampledGather {
	checkSampledInputs(w, blocks, layout)
	rs := newResidentStores(layout)
	plan := newSampledGatherPlan(w, blocks, layout, rs)
	return &SampledGather{planEngine{plan: plan, ws: newExecWS(plan)}, rs}
}

// Recompile replaces the schedule with the next batch's frontier blocks,
// which the new plan does not retain, compiled against the resident stores
// the plans before it filled. The per-rank workspaces persist: the
// all-to-allv group is always the full world, so the grown buffers stay
// valid and only resize upward. Must not be called concurrently with
// MultiplyInto: a gather shared by the hosted ranks is recompiled only once
// every rank has finished executing the previous plan — which any collective
// they all join after their MultiplyInto establishes.
func (e *SampledGather) Recompile(blocks []*sparse.CSR) {
	w, layout := e.plan.world, e.plan.layout
	checkSampledInputs(w, blocks, layout)
	e.plan = newSampledGatherPlan(w, blocks, layout, e.resident)
}

// Resident returns how many rows the ranks' stores hold together once the
// current plan has run: the mark Rewind returns them to.
func (e *SampledGather) Resident() int { return len(e.resident.log) }

// Rewind truncates the stores to the first n rows they took in — their state
// when Resident returned n — so the next Recompile ships what the plan
// compiled at that point shipped. A caller rewinds to before a plan that may
// not have run to completion on every rank. Must not be called concurrently
// with MultiplyInto.
func (e *SampledGather) Rewind(n int) {
	if n < 0 || n > len(e.resident.log) {
		panic(fmt.Sprintf("distmm: rewind to %d of %d resident rows", n, len(e.resident.log)))
	}
	e.resident.rewind(n)
}

// OutRows returns rank's frontier height (the gather's accumulator rows).
func (e *SampledGather) OutRows(rank int) int { return e.plan.outRows[rank] }
