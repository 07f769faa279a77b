// Package minibatch implements neighbor-sampled mini-batch GNN training in
// the style of GraphSAGE (Hamilton et al. 2017) — the training mode the
// paper's introduction contrasts with full-batch training. It exists so the
// repository can demonstrate the tradeoff the paper describes: sampling
// avoids the full-graph SpMM but suffers irregular gather-heavy memory
// access and stochastic-gradient noise, whereas full-batch training (the
// paper's subject) turns the epoch into a few large SpMMs whose
// communication can then be optimized.
//
// The package holds what is specific to sampling: the layered block sampler
// (emitter, which writes each batch's blocks straight into reused CSR
// storage) and the chain operand over the sampled rectangular blocks. The
// step itself — forward, loss, backward — is gcn.Workspace.Gradients, the
// one the full-batch trainers run. Dist (dist.go) is the one sampled
// trainer, an epoch body for a gcn.Stepper in which each batch's first layer
// is a halo gather compiled into a distmm plan — each step derived once per
// process and shared by the ranks the process hosts; a one-rank world is the
// single-process sampled trainer.
package minibatch

import (
	"math/rand"
	"slices"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/sparse"
)

// ErrEmptyTrainSet is gcn.ErrEmptyTrainSet: the one error every trainer
// returns when there are no training vertices to draw a batch from.
var ErrEmptyTrainSet = gcn.ErrEmptyTrainSet

// block is one layer's sampled bipartite aggregation: rows are the layer's
// output vertices, columns index the previous layer's vertex list. Its
// storage is grow-only and rewritten by the next batch sampled into it.
type block struct {
	adj sparse.CSR
	// srcs lists the global vertex ids of the columns; empty for the bottom
	// block, which is emitted with global column ids (its columns are the ids).
	srcs []int
}

// emitter is one rank's sampling core. The layered computation graph is
// fully determined by (rng stream, adjacency, batch) — the determinism
// contract distributed bit-identity rests on — and is written straight into
// CSR storage: rows come out in order with at most fanout+1 entries each, so
// every draw is inserted into its row's sorted run and nothing is sorted,
// hashed or allocated once the storage has grown. A row's draws are made
// first and their column ids loaded together, so the loads' cache misses
// overlap instead of each waiting behind the insert before it.
type emitter struct {
	// adj is Â, whose rows neighbors are drawn from. self[v] is the position
	// of v's own column within its row, skipped by the draws (every sampled
	// row adds its self loop itself; a row without one records its length).
	adj    *sparse.CSR
	self   []int
	fanout int
	// rng is reseeded from the coordinates of whatever it draws next.
	rng *rand.Rand
	// seen interns a layer's columns: vertex v is column seen[v]-base when
	// seen[v] >= base. base moves past every position a layer hands out, so
	// the array is never cleared.
	seen []int
	base int
	// draws holds one row's drawn neighbors; it grows to the fanout once.
	draws []int
}

func newEmitter(adj *sparse.CSR, self []int, fanout int) emitter {
	return emitter{
		adj: adj, self: self, fanout: fanout,
		rng: rand.New(rand.NewSource(0)), seen: make([]int, adj.NumRows), base: 1,
	}
}

// neighbors returns v's adjacency row, the position the draws skip (the
// row's length when there is none) and the number of neighbors left.
func (e *emitter) neighbors(v int) (row []int, skip, deg int) {
	row = e.adj.ColIdx[e.adj.RowPtr[v]:e.adj.RowPtr[v+1]]
	skip, deg = e.self[v], len(row)
	if skip < len(row) {
		deg--
	}
	return row, skip, deg
}

// room makes sure b can take n more entries, and as many more interned
// columns, without reallocating.
func (b *block) room(n int) {
	b.adj.ColIdx = slices.Grow(b.adj.ColIdx, n)
	b.adj.Val = slices.Grow(b.adj.Val, n)
	b.srcs = slices.Grow(b.srcs, n)
}

// sample draws the layered computation graph for a batch into blocks, one
// per layer: the top block's rows are the batch vertices and each layer
// below adds the sampled neighbors of the one above. The bottom block keeps
// global column ids, the shape distmm.NewSampledGather takes; the blocks
// above it intern theirs. Aggregation weights are
// the mean over the sampled neighbors plus the self loop, a sampled analogue
// of the GCN normalization; a neighbor drawn twice (draws are with
// replacement) weighs twice.
func (e *emitter) sample(blocks []block, batch []int) {
	outputs := batch
	for l := len(blocks) - 1; l >= 0; l-- {
		b, intern := &blocks[l], l > 0
		b.adj.RowPtr = slices.Grow(b.adj.RowPtr[:0], len(outputs)+1)[:len(outputs)+1]
		b.adj.ColIdx, b.adj.Val, b.srcs = b.adj.ColIdx[:0], b.adj.Val[:0], b.srcs[:0]
		for r, v := range outputs {
			row, skip, deg := e.neighbors(v)
			take := min(deg, e.fanout)
			w := 1.0 / float64(take+1)
			start := len(b.adj.ColIdx)
			b.adj.RowPtr[r] = start
			b.room(take + 1)
			e.put(b, start, v, w, intern)
			for _, u := range e.draw(row, skip, deg, take) {
				e.put(b, start, u, w, intern)
			}
		}
		b.adj.RowPtr[len(outputs)] = len(b.adj.ColIdx)
		b.adj.NumRows, b.adj.NumCols = len(outputs), e.adj.NumRows
		if intern {
			b.adj.NumCols = len(b.srcs)
			e.base += len(b.srcs)
		}
		outputs = b.srcs
	}
}

// draw returns take of a row's neighbors, in draw order: every neighbor
// when the row has no more than the fanout, else take positions drawn with
// replacement. The positions are drawn first, then their column ids are
// loaded in one pass.
func (e *emitter) draw(row []int, skip, deg, take int) []int {
	e.draws = slices.Grow(e.draws[:0], take)[:take]
	d := e.draws
	if deg > e.fanout {
		for k := range d {
			d[k] = e.rng.Intn(deg)
		}
	} else {
		for k := range d {
			d[k] = k
		}
	}
	for k, j := range d {
		if j >= skip {
			j++
		}
		d[k] = row[j]
	}
	return d
}

// put adds weight w at vertex u's column to the row that starts at position
// start and ends at b's last entry, keeping the row's columns sorted and
// folding a repeated column by addition — the merge sparse.NewCSR computes
// over the same coordinates. The caller has made room.
func (e *emitter) put(b *block, start, u int, w float64, intern bool) {
	c := u
	if intern {
		if e.seen[u] < e.base {
			e.seen[u] = e.base + len(b.srcs)
			b.srcs = b.srcs[:len(b.srcs)+1]
			b.srcs[len(b.srcs)-1] = u
		}
		c = e.seen[u] - e.base
	}
	n := len(b.adj.ColIdx)
	cols, vals := b.adj.ColIdx[:n+1], b.adj.Val[:n+1]
	i := n
	for i > start && cols[i-1] > c {
		i--
	}
	if i > start && cols[i-1] == c {
		vals[i-1] += w
		return
	}
	// The run past i is at most fanout entries: shift it in place.
	for k := n; k > i; k-- {
		cols[k], vals[k] = cols[k-1], vals[k-1]
	}
	cols[i], vals[i] = c, w
	b.adj.ColIdx, b.adj.Val = cols, vals
}

// chain is the sampled operand: layer l aggregates over the rectangular
// block blocks[l-1] and its transpose, held in reusable per-layer workspaces
// so the backward pass stops allocating once they have grown to the sampled
// block sizes. Layer 1 — a new product every batch — comes in two forms
// (First). With a rank set, every local SpMM is charged to it.
type chain struct {
	blocks []block
	labels []int                 // the batch's classes, aligned with the top block's rows
	x      *dense.Matrix         // the rank's feature slice the halo gather multiplies
	gather *distmm.SampledGather // the step's compiled halo gather
	landed *dense.Matrix         // reference mirror: layer 1 as the reference gather landed it
	rank   *comm.Rank

	agg          *dense.Matrix // layer 1's aggregate
	adjT         []sparse.CSR
	tposeScratch []int
}

// First is layer 1: the aggregation the reference gather already landed, or
// the halo gather of the rank's feature slice.
func (c *chain) First() *dense.Matrix {
	if c.landed != nil {
		return c.landed
	}
	c.agg = dense.Reshape(c.agg, c.blocks[0].adj.NumRows, c.x.Cols)
	c.gather.MultiplyInto(c.rank, c.x, c.agg)
	return c.agg
}

func (c *chain) Rows(l int) int { return c.blocks[l-1].adj.NumRows }

func (c *chain) Aggregate(l int, dst, h *dense.Matrix) {
	c.spmm(&c.blocks[l-1].adj, dst, h)
}

func (c *chain) AggregateT(l int, dst, g *dense.Matrix) {
	c.spmm(c.transposed(l-1), dst, g)
}

func (c *chain) spmm(a *sparse.CSR, dst, h *dense.Matrix) {
	a.SpMMInto(dst, h)
	if c.rank != nil {
		c.rank.ChargeCompute("local", c.rank.World().Params.SpMMTime(a.Flops(h.Cols)))
	}
}

// transposed returns adjᵀ of the block at layer boundary l in the chain's
// reusable workspace.
func (c *chain) transposed(l int) *sparse.CSR {
	adj := &c.blocks[l].adj
	if len(c.adjT) != len(c.blocks) {
		c.adjT = make([]sparse.CSR, len(c.blocks))
	}
	adj.TransposeInto(&c.adjT[l], dense.Grow(&c.tposeScratch, adj.NumCols))
	return &c.adjT[l]
}

// load points the chain at one batch: its sampled blocks and, in reused
// storage, its classes (the step's loss takes labels aligned with the batch
// rows).
func (c *chain) load(blocks []block, labels, batch []int) {
	c.blocks, c.labels = blocks, c.labels[:0]
	for _, v := range batch {
		c.labels = append(c.labels, labels[v])
	}
}
