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
// one the full-batch trainers run. Trainer steps it serially over blocks of
// gathered feature rows; Dist (dist.go) is the distributed form, an epoch
// body for a gcn.Stepper in which each batch's first layer is a halo gather
// compiled into a distmm plan — each step derived once per process and
// shared by the ranks the process hosts.
package minibatch

import (
	"fmt"
	"math/rand"
	"slices"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/graph"
	"sagnn/internal/opt"
	"sagnn/internal/sparse"
)

// ErrEmptyTrainSet is gcn.ErrEmptyTrainSet: the one error every trainer
// returns when there are no training vertices to draw a batch from.
var ErrEmptyTrainSet = gcn.ErrEmptyTrainSet

// Trainer trains a GCN with L-hop neighbor sampling.
type Trainer struct {
	G      *graph.Graph
	X      *dense.Matrix
	Labels []int
	Train  []int
	Model  *gcn.Model
	// Fanout is the number of sampled neighbors per vertex per layer; the
	// receptive field is Fanout^L vertices per batch element in the worst
	// case — the neighborhood-explosion problem the paper cites.
	Fanout    int
	BatchSize int
	Opt       opt.Optimizer

	// The step's reusable state: the sampler (whose rng also shuffles the
	// epochs) and the blocks it emits into, the operand (gather buffer,
	// transposes, batch labels) and the dense workspace.
	em     emitter
	blocks []block
	chain  chain
	ws     gcn.Workspace
}

// New validates shapes, seeds the sampler, and defaults a nil optimizer to
// plain SGD — the constructor-validates contract, so Step never has to
// repair the trainer mid-flight.
func New(g *graph.Graph, x *dense.Matrix, labels, train []int, model *gcn.Model,
	fanout, batchSize int, o opt.Optimizer, seed int64) *Trainer {
	if g.NumVertices() != x.Rows || len(labels) != x.Rows {
		panic(fmt.Sprintf("minibatch: graph %d vertices, X %d rows, %d labels",
			g.NumVertices(), x.Rows, len(labels)))
	}
	if fanout < 1 || batchSize < 1 {
		panic(fmt.Sprintf("minibatch: fanout %d batch %d", fanout, batchSize))
	}
	if o == nil {
		o = &opt.SGD{LR: 0.05}
	}
	return &Trainer{
		G: g, X: x, Labels: labels, Train: train, Model: model,
		Fanout: fanout, BatchSize: batchSize, Opt: o,
		em: newEmitter(g.Adj, nil, fanout, false, seed),
	}
}

// block is one layer's sampled bipartite aggregation: rows are the layer's
// output vertices, columns index the previous layer's vertex list. Its
// storage is grow-only and rewritten by the next batch sampled into it.
type block struct {
	adj sparse.CSR
	// srcs lists the global vertex ids of the columns; empty for a block
	// emitted with global column ids (its columns are the ids).
	srcs []int
}

// emitter is the sampling core shared by the serial trainer and the
// distributed trainer's per-rank samplers. The layered computation graph is
// fully determined by (rng stream, adjacency, batch) — the determinism
// contract distributed bit-identity rests on — and is written straight into
// CSR storage: rows come out in order with at most fanout+1 entries each, so
// every draw is inserted into its row's sorted run and nothing is sorted,
// hashed or allocated once the storage has grown.
type emitter struct {
	// adj is the matrix whose rows neighbors are drawn from. self[v] is the
	// position of v's own column within its row, skipped by the draws (Â
	// stores the self loop every sampled row adds itself; a row without one
	// records its length); nil when the rows hold neighbors only.
	adj    *sparse.CSR
	self   []int
	fanout int
	// global emits layer 0 with global column ids, the shape
	// distmm.NewSampledGather takes, instead of interning its columns.
	global bool
	rng    *rand.Rand
	// seen interns a layer's columns: vertex v is column seen[v]-base when
	// seen[v] >= base. base moves past every position a layer hands out, so
	// the array is never cleared.
	seen []int
	base int
}

func newEmitter(adj *sparse.CSR, self []int, fanout int, global bool, seed int64) emitter {
	return emitter{
		adj: adj, self: self, fanout: fanout, global: global,
		rng: rand.New(rand.NewSource(seed)), seen: make([]int, adj.NumRows), base: 1,
	}
}

// neighbors returns v's adjacency row, the position the draws skip (the
// row's length when there is none) and the number of neighbors left.
func (e *emitter) neighbors(v int) (row []int, skip, deg int) {
	row = e.adj.ColIdx[e.adj.RowPtr[v]:e.adj.RowPtr[v+1]]
	skip, deg = len(row), len(row)
	if e.self != nil && e.self[v] < len(row) {
		skip, deg = e.self[v], deg-1
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
// below adds the sampled neighbors of the one above. Aggregation weights are
// the mean over the sampled neighbors plus the self loop, a sampled analogue
// of the GCN normalization; a neighbor drawn twice (draws are with
// replacement) weighs twice.
//
//sagnn:steadystate
func (e *emitter) sample(blocks []block, batch []int) {
	outputs := batch
	for l := len(blocks) - 1; l >= 0; l-- {
		b, intern := &blocks[l], l > 0 || !e.global
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
			for k := 0; k < take; k++ {
				j := k
				if deg > e.fanout {
					j = e.rng.Intn(deg)
				}
				if j >= skip {
					j++
				}
				e.put(b, start, row[j], w, intern)
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

// put adds weight w at vertex u's column to the row that starts at position
// start and ends at b's last entry, keeping the row's columns sorted and
// folding a repeated column by addition — the merge sparse.NewCSR computes
// over the same coordinates. The caller has made room.
//
//sagnn:steadystate
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
	i := n
	for i > start && b.adj.ColIdx[i-1] > c {
		i--
	}
	if i > start && b.adj.ColIdx[i-1] == c {
		b.adj.Val[i-1] += w
		return
	}
	cols, vals := b.adj.ColIdx[:n+1], b.adj.Val[:n+1]
	copy(cols[i+1:], cols[i:])
	copy(vals[i+1:], vals[i:])
	cols[i], vals[i] = c, w
	b.adj.ColIdx, b.adj.Val = cols, vals
}

// chain is the sampled operand: layer l aggregates over the rectangular
// block blocks[l-1] and its transpose, held in reusable per-layer workspaces
// so the backward pass stops allocating once they have grown to the sampled
// block sizes. Layer 1 — a new product every batch — comes in three forms
// (First). With a rank set, every local SpMM is charged to it.
type chain struct {
	blocks []block
	labels []int // the batch's classes, aligned with the top block's rows
	// x is what layer 1 reads: the features H⁰ is gathered from (serial), or
	// the rank's feature slice the halo gather multiplies (distributed).
	x      *dense.Matrix
	gather *distmm.SampledGather // distributed: the step's compiled halo gather
	landed *dense.Matrix         // reference mirror: layer 1 as the reference gather landed it
	rank   *comm.Rank

	h0, agg      *dense.Matrix // serial gather buffer; layer 1's aggregate
	adjT         []sparse.CSR
	tposeScratch []int
}

// First is layer 1: the aggregation the reference gather already landed, the
// distributed halo gather of the rank's feature slice, or the bottom block
// over feature rows gathered from x. Only the last materialises H⁰.
func (c *chain) First() (agg, h0 *dense.Matrix) {
	if c.landed != nil {
		return c.landed, nil
	}
	bottom := &c.blocks[0]
	c.agg = dense.Reshape(c.agg, bottom.adj.NumRows, c.x.Cols)
	if c.gather != nil {
		c.gather.MultiplyInto(c.rank, c.x, c.agg)
		return c.agg, nil
	}
	c.h0 = dense.Reshape(c.h0, len(bottom.srcs), c.x.Cols)
	c.x.GatherRowsInto(c.h0.Data, bottom.srcs)
	c.spmm(&bottom.adj, c.agg, c.h0)
	return c.agg, c.h0
}

func (c *chain) Rows(l int) int { return c.blocks[l-1].adj.NumRows }

func (c *chain) Aggregate(l int, dst, h *dense.Matrix) {
	c.spmm(&c.blocks[l-1].adj, dst, h)
}

// Self is never reached: sampled training runs GCNConv only.
func (c *chain) Self(_ int, h *dense.Matrix) *dense.Matrix { return h }

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
	if cap(c.tposeScratch) < adj.NumCols {
		c.tposeScratch = make([]int, adj.NumCols)
	}
	adj.TransposeInto(&c.adjT[l], c.tposeScratch[:adj.NumCols])
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

// sampleBlocks draws the layered computation graph for a batch into the
// trainer's reused blocks: layer L outputs the batch vertices; each previous
// layer adds sampled neighbors.
func (t *Trainer) sampleBlocks(batch []int, layers int) []block {
	if len(t.blocks) != layers {
		t.blocks = make([]block, layers)
	}
	t.em.fanout = t.Fanout
	t.em.sample(t.blocks, batch)
	return t.blocks
}

// Step runs one mini-batch: sample, forward, backward, update. Returns the
// batch's mean loss. Once the blocks and the workspace have grown to the
// batch's shapes it allocates nothing.
//
//sagnn:steadystate
func (t *Trainer) Step(batch []int) (float64, error) {
	c := &t.chain
	c.x = t.X
	c.load(t.sampleBlocks(batch, t.Model.Layers()), t.Labels, batch)
	lossSum, _, err := t.ws.Step(t.Opt, t.Model, gcn.GCNConv, c, nil, c.labels, len(batch), gcn.Collective{})
	if err != nil {
		return 0, err
	}
	return lossSum * (1 / float64(len(batch))), nil
}

// Epoch shuffles the training set and runs it in batches, returning the
// per-example mean loss: batch losses are weighted by batch size, so a
// short final partial batch contributes proportionally rather than equally.
// An empty training set returns ErrEmptyTrainSet.
func (t *Trainer) Epoch() (float64, error) {
	order := append([]int(nil), t.Train...)
	t.em.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if len(order) == 0 {
		return 0, ErrEmptyTrainSet
	}
	total := 0.0
	for lo := 0; lo < len(order); lo += t.BatchSize {
		hi := lo + t.BatchSize
		if hi > len(order) {
			hi = len(order)
		}
		loss, err := t.Step(order[lo:hi])
		if err != nil {
			return 0, err
		}
		total += loss * float64(hi-lo)
	}
	return total / float64(len(order)), nil
}
