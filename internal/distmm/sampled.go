package distmm

import (
	"fmt"
	"math/bits"

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
// one all-to-allv moves them, and one sweep multiplies the rank's own rows
// and the landed ones into an accumulator as tall as the frontier. Because
// the choreography is an ordinary Plan run by the shared engine, sampled
// batches inherit byte-exact Volumes prediction, static verification, and
// the abort protocol unchanged.
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
// reaches the step first (see Recompile for when that is safe) while the
// others wait. So the NnzCols schedule, which the paper computes once as
// preprocessing outside training time, is here built inside every step:
// buildNnzSchedule makes it in two passes over each frontier block, with a
// marking scratch the gather keeps across Recompiles. Nor does a step's
// compile make garbage: the gather keeps two compile arenas — schedule,
// slot fills and plan — and compiles each step into the one the step
// before last used, so a warmed step allocates nothing that grows with its
// frontier, and a compiled plan stays readable while the next one compiles.

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

// compileArena is the storage one compile of a sampled step writes, all of
// it overwritten by the next compile into the same arena: the schedule
// with its per-block-row arrays, the slot fills (fills[i] is rank i's row
// of the table, shipBufs[i] the array behind its fill maps and ship
// lists) and the plan.
type compileArena struct {
	sched    nnzSchedule
	fills    [][]slotFill
	shipBufs [][]int
	plan     Plan
}

// newSampledGatherPlan compiles the halo-gather schedule for one batch's
// frontier blocks against the resident stores rs into arena a, and
// advances rs past it: Algorithm 1 on a rectangular 1D plan whose input
// heights are the layout blocks, whose accumulator heights are the
// frontiers, and whose exchange ships only the rows not yet resident at
// their destination. The plan it returns is a's.
func newSampledGatherPlan(w *comm.World, blocks []*sparse.CSR, layout Layout, rs *residentStores, marks scheduleMarks, a *compileArena) *Plan {
	plan := init1DPlan(&a.plan, "sampled-gather", w, layout)
	inRows, store := dense.Grow(&plan.inRows, w.P), dense.Grow(&plan.store, w.P)
	for i := range inRows {
		inRows[i] = layout.Count(i)
		plan.outRows[i] = blocks[i].NumRows
	}
	sched := buildNnzSchedule(frontierRows(blocks), layout, marks, &a.sched)
	fills := rs.advance(sched.recvIdx, layout, a)
	for i := range store {
		store[i] = len(rs.sets[i].rows)
	}
	writeAlgorithm1(plan, sched, fills)
	return plan
}

// slotFill is one landing slot (i, j) of a sampled step split against rank
// i's resident store: ship lists the j-local rows peer j sends (the slot's
// rows i does not hold); fill[k] is slot row k's source, landed row fill[k]
// when ≥ 0 and store row -1-fill[k] otherwise (nil when ship is the whole
// slot); and the first keep shipped rows join i's store at rows [storeAt,
// storeAt+keep).
type slotFill struct {
	ship          []int
	fill          []int
	storeAt, keep int
}

// residentSet indexes one rank's resident store: rows[pos] is the global
// feature row at store row pos, and slots finds it again — an
// open-addressed table of pos+1 (0 is an empty slot) probed linearly from
// a multiplicative hash, at least twice the store's bound in size. Both
// are sized once by the rank's own row count, so all ranks' together are
// O(n). Rows leave only in the reverse of the order they came (pop), so
// emptying a row's slot returns the table to its state before the row
// came: no row that came earlier probed past that slot, which was empty
// then.
type residentSet struct {
	rows  []int
	slots []int
	shift uint // 64 − log2(len(slots)): the hash keeps the top bits
}

func newResidentSet(capacity int) residentSet {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	return residentSet{rows: make([]int, 0, capacity), slots: make([]int, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// find returns g's slot: the one holding it, or the empty one where it
// would go.
func (s *residentSet) find(g int) int {
	i := int(uint64(g) * 0x9E3779B97F4A7C15 >> s.shift)
	for s.slots[i] != 0 && s.rows[s.slots[i]-1] != g {
		i = (i + 1) & (len(s.slots) - 1)
	}
	return i
}

// add makes g, which is not resident, resident at the next store row; the
// caller checks capacity.
func (s *residentSet) add(g int) {
	i := s.find(g)
	s.rows = append(s.rows, g)
	s.slots[i] = len(s.rows)
}

// pop forgets the row added last.
func (s *residentSet) pop() {
	last := len(s.rows) - 1
	s.slots[s.find(s.rows[last])] = 0
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
// NnzCols schedule) against the resident stores into arena a's fill table
// and makes the shipped rows resident while their destination's store has
// room. fills[i][j] is slot (i, j).
func (rs *residentStores) advance(recvIdx [][][]int, layout Layout, a *compileArena) [][]slotFill {
	fills, bufs := dense.Grow(&a.fills, len(recvIdx)), dense.Grow(&a.shipBufs, len(recvIdx))
	par.For(len(recvIdx), func(i int) { rs.sets[i].split(recvIdx[i], i, layout, &fills[i], &bufs[i]) })
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
// its store into *fills, one per peer, then keeps the shipped rows while
// the store has room, first come first kept. Peers come in cyclic order
// from me+1 and rows in ascending order: once stores fill, each sender is
// some rank's first peer, so the room left is shared across senders rather
// than spent on rank 0's rows everywhere, which would leave the highest
// rank shipping all it did. *buf backs every fill map and ship list.
func (s *residentSet) split(recvIdx [][]int, me int, layout Layout, fills *[]slotFill, buf *[]int) {
	out := dense.Grow(fills, len(recvIdx))
	clear(out)
	// Nothing is resident in an empty store, so that step needs no fill
	// maps.
	var free []int
	if len(s.rows) > 0 {
		n := 0
		for _, idx := range recvIdx {
			n += len(idx)
		}
		free = dense.Grow(buf, 2*n)
	}
	for d := 1; d < len(recvIdx); d++ {
		j := (me + d) % len(recvIdx)
		idx := recvIdx[j]
		if len(idx) == 0 {
			continue
		}
		lo, _ := layout.Range(j)
		fl := &out[j]
		fl.ship = idx
		if free != nil {
			fill, ship := free[:len(idx):len(idx)], free[len(idx):len(idx):2*len(idx)]
			free = free[2*len(idx):]
			for k, c := range idx {
				if p := s.slots[s.find(lo+c)]; p != 0 {
					fill[k] = -p
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
}

// SampledGatherReference computes every rank's frontier aggregation of one
// batch serially, without a world, in the executor's exact per-rank
// accumulation order: the diagonal block first, then each peer's block in
// ascending rank order — the same schedule's halo cut into one block per
// peer slot, its columns the peer's landed rows. A distributed execution of
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
	sched := buildNnzSchedule(frontierRows(blocks), layout, nil, new(nnzSchedule))
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
			sched.slots(me, j, j+1).SpMMAddInto(out, land)
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
// across epochs. It compiles into two arenas in turn, and verifies with
// scratch it keeps, so a warmed step's compile and Verify reuse storage
// too.
//
// The stores hold rows of the feature slices earlier calls multiplied, so
// every MultiplyInto must pass each rank the same (static) feature slice, at
// the same width, and run the plans in the order they were compiled.
type SampledGather struct {
	planEngine
	resident *residentStores
	marks    scheduleMarks // the schedule builder's, kept across Recompiles
	arenas   [2]compileArena
	cur      int // the arena plan was compiled into
	verifier verifier
}

// NewSampledGather compiles the gather plan for one batch's frontier
// blocks: blocks[i] is rank i's bottom-level sampled aggregation block,
// with rows over rank i's frontier and columns over the global (permuted)
// vertex space distributed by layout. The stores start empty, so the first
// plan ships every row it names.
func NewSampledGather(w *comm.World, blocks []*sparse.CSR, layout Layout) *SampledGather {
	checkSampledInputs(w, blocks, layout)
	e := &SampledGather{resident: newResidentStores(layout), marks: newScheduleMarks()}
	e.plan = newSampledGatherPlan(w, blocks, layout, e.resident, e.marks, &e.arenas[0])
	e.ws = newExecWS(e.plan)
	return e
}

// Recompile replaces the schedule with the next batch's frontier blocks,
// which the new plan does not retain, compiled against the resident stores
// the plans before it filled. It compiles into the arena the plan before
// the current one used, so the current plan stays valid: a plan Plan
// returns is valid until the second Recompile after it. The per-rank
// workspaces persist: the all-to-allv group is always the full world, so
// the grown buffers stay valid and only resize upward. Must not be called
// concurrently with MultiplyInto: a gather shared by the hosted ranks is
// recompiled only once every rank has finished executing the previous plan
// — which any collective they all join after their MultiplyInto
// establishes.
func (e *SampledGather) Recompile(blocks []*sparse.CSR) {
	w, layout := e.plan.world, e.plan.layout
	checkSampledInputs(w, blocks, layout)
	e.cur = 1 - e.cur
	e.plan = newSampledGatherPlan(w, blocks, layout, e.resident, e.marks, &e.arenas[e.cur])
}

// Verify is Verify of the current plan, with scratch the gather keeps for
// the next plan's. Must not be called concurrently with Recompile or
// another Verify.
func (e *SampledGather) Verify() error { return e.verifier.verify(e.plan) }

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
