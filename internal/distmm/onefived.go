package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/sparse"
)

// Grid organises P ranks as a (P/c)×c process grid for the 1.5D algorithms:
// world rank = i*c + j for process P(i,j). Block row i of Aᵀ and H is
// replicated on the c members of process row P(i,:).
type Grid struct {
	P, C  int
	Rows  int // P/c block rows
	world *comm.World
	// rowGroups[i] spans P(i,:) — the all-reduce group.
	rowGroups []*comm.Group
	// colGroups[j] spans P(:,j) — the broadcast/p2p group, ordered by row.
	colGroups []*comm.Group
}

// NewGrid validates the replication factor and builds the sub-communicators.
// Requires c | P and P ≥ c² (so every process handles ≥ 1 stage); an
// infeasible factor panics (NewEngine wraps this in a typed error).
func NewGrid(w *comm.World, c int) *Grid {
	if c < 1 || w.P%c != 0 {
		panic(fmt.Sprintf("distmm: replication factor %d does not divide P=%d", c, w.P))
	}
	rows := w.P / c
	if rows%c != 0 {
		panic(fmt.Sprintf("distmm: 1.5D needs c² | P; got P=%d c=%d", w.P, c))
	}
	g := &Grid{P: w.P, C: c, Rows: rows, world: w}
	for i := 0; i < rows; i++ {
		members := make([]int, c)
		for j := 0; j < c; j++ {
			members[j] = i*c + j
		}
		g.rowGroups = append(g.rowGroups, w.NewGroup(members))
	}
	for j := 0; j < c; j++ {
		members := make([]int, rows)
		for i := 0; i < rows; i++ {
			members[i] = i*c + j
		}
		g.colGroups = append(g.colGroups, w.NewGroup(members))
	}
	return g
}

// RowOf returns the process-row index i of a world rank.
func (g *Grid) RowOf(rank int) int { return rank / g.C }

// ColOf returns the process-column index j of a world rank.
func (g *Grid) ColOf(rank int) int { return rank % g.C }

// Stages returns s = P/c², the number of SpMM stages per process.
func (g *Grid) Stages() int { return g.Rows / g.C }

// check15DInputs validates the shared 1.5D constructor contract; violations
// panic (construction-time misuse — NewEngine wraps this in a typed error).
func check15DInputs(grid *Grid, aT *sparse.CSR, layout Layout) {
	if layout.Blocks() != grid.Rows {
		panic(fmt.Sprintf("distmm: layout has %d blocks, grid has %d rows", layout.Blocks(), grid.Rows))
	}
	if layout.N() != aT.NumRows {
		panic("distmm: layout does not match matrix")
	}
}

// new15DPlan allocates the per-rank metadata every 1.5D plan shares: world
// rank i*c+j owns block row i, accumulates into a partial-sum buffer folded
// by a process-row all-reduce, and reduces gradients over its process
// column (each column holds every block row exactly once).
func new15DPlan(name string, grid *Grid, layout Layout) *Plan {
	p := grid.P
	plan := &Plan{
		name:        name,
		world:       grid.world,
		layout:      layout,
		replication: grid.C,
		partial:     true,
		blockOf:     make([]int, p),
		outRows:     make([]int, p),
		gradGroups:  make([]*comm.Group, p),
		progs:       make([][]instr, p),
	}
	for rank := 0; rank < p; rank++ {
		i, j := grid.RowOf(rank), grid.ColOf(rank)
		plan.blockOf[rank] = i
		plan.outRows[rank] = layout.Count(i)
		plan.gradGroups[rank] = grid.colGroups[j]
	}
	return plan
}

// NewOblivious15D compiles the sparsity-oblivious 1.5D algorithm: at each
// stage the owner broadcasts an entire H block down its process column;
// partial sums are combined with an all-reduce across each process row.
// aT is split into (P/c)² blocks.
func NewOblivious15D(w *comm.World, aT *sparse.CSR, c int, layout Layout) Engine {
	grid := NewGrid(w, c)
	check15DInputs(grid, aT, layout)
	blocks := layoutRows(aT, layout).split(layout) // [i][q] = A^T_{iq}
	plan := new15DPlan(fmt.Sprintf("oblivious-1.5d(c=%d)", c), grid, layout)
	s := grid.Stages()
	for rank := 0; rank < w.P; rank++ {
		i, j := grid.RowOf(rank), grid.ColOf(rank)
		col := grid.colGroups[j]
		prog := make([]instr, 0, s+1)
		for k := 0; k < s; k++ {
			// Stage k of column j moves block row q = j·s+k; the column
			// group is ordered by row, so q is also the root's group index.
			q := j*s + k
			prog = append(prog, instr{op: opBcastMul, group: col, root: q, own: q == i, rows: layout.Count(q), blk: blocks[i][q]})
		}
		prog = append(prog, instr{op: opAllReduce, group: grid.rowGroups[i]})
		plan.progs[rank] = prog
	}
	return newPlanEngine(plan)
}

// NewSparsityAware15D compiles the paper's Algorithm 2: the same staged
// 1.5D schedule, but at each stage the owner point-to-point sends each
// consumer only the H rows its block's nonzero columns require. The stage
// schedule is a perfect matching — every owner serves exactly its column's
// members — so no drain messages are needed.
func NewSparsityAware15D(w *comm.World, aT *sparse.CSR, c int, layout Layout) Engine {
	grid := NewGrid(w, c)
	check15DInputs(grid, aT, layout)
	sched := buildNnzSchedule(layoutRows(aT, layout), layout)
	plan := new15DPlan(fmt.Sprintf("sparsity-aware-1.5d(c=%d)", c), grid, layout)
	s := grid.Stages()
	for rank := 0; rank < w.P; rank++ {
		i, j := grid.RowOf(rank), grid.ColOf(rank)
		prog := make([]instr, 0, s+grid.Rows)
		for k := 0; k < s; k++ {
			q := j*s + k
			if q == i {
				// Stage owner: serve every other member of my column the
				// rows its blocks need, then multiply my own (full-width)
				// diagonal-stage block locally.
				for l := 0; l < grid.Rows; l++ {
					if l == i {
						continue
					}
					prog = append(prog, instr{op: opSendRows, peer: l*grid.C + j, tag: k, idx: sched.recvIdx[l][q]})
				}
				prog = append(prog, instr{op: opChargePack})
				prog = append(prog, instr{op: opMulOwn, blk: sched.diag[i]})
				continue
			}
			prog = append(prog, instr{op: opRecvMul, peer: q*grid.C + j, tag: k, rows: len(sched.recvIdx[i][q]), blk: sched.compact[i][q]})
		}
		prog = append(prog, instr{op: opAllReduce, group: grid.rowGroups[i]})
		plan.progs[rank] = prog
	}
	return newPlanEngine(plan)
}
