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
// and the chain operand over the sampled rectangular blocks. The step itself
// — forward, loss, backward — is gcn.Workspace.Gradients, the one the
// full-batch trainers run. Trainer steps it serially over blocks of gathered
// feature rows; Dist (dist.go) is the distributed form, an epoch body for a
// gcn.Stepper in which each batch's first layer is a halo gather compiled
// into a distmm plan.
package minibatch

import (
	"fmt"
	"math/rand"

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
	rng       *rand.Rand

	// The step's reusable state: the operand (gather buffer, transposes,
	// batch labels) and the dense workspace.
	chain chain
	ws    gcn.Workspace
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
		rng: rand.New(rand.NewSource(seed)),
	}
}

// block is one layer's sampled bipartite aggregation: rows are the layer's
// output vertices, columns index the previous layer's vertex list.
type block struct {
	adj *sparse.CSR
	// srcs lists the global vertex ids of the columns.
	srcs []int
}

// sampleBlocks draws the layered computation graph for a batch: layer L
// outputs the batch vertices; each previous layer adds sampled neighbors.
// Aggregation weights are mean over sampled neighbors plus the self loop,
// a sampled analogue of the GCN normalization.
func (t *Trainer) sampleBlocks(batch []int, layers int) []block {
	return sampleLayeredBlocks(t.rng, t.G.Neighbors, batch, layers, t.Fanout)
}

// sampleLayeredBlocks is the sampling core shared by the serial trainer and
// the distributed trainer's per-rank samplers: the layered computation graph
// is fully determined by (rng stream, neighbor function, batch), which is
// the determinism contract distributed bit-identity rests on.
func sampleLayeredBlocks(rng *rand.Rand, neighbors func(int) []int, batch []int, layers, fanout int) []block {
	blocks := make([]block, layers)
	outputs := batch
	for l := layers - 1; l >= 0; l-- {
		srcIndex := make(map[int]int, len(outputs)*(fanout+1))
		var srcs []int
		intern := func(v int) int {
			if i, ok := srcIndex[v]; ok {
				return i
			}
			i := len(srcs)
			srcIndex[v] = i
			srcs = append(srcs, v)
			return i
		}
		var coords []sparse.Coord
		for row, v := range outputs {
			nbrs := neighbors(v)
			sampled := make([]int, 0, fanout+1)
			sampled = append(sampled, v) // self loop
			if len(nbrs) <= fanout {
				sampled = append(sampled, nbrs...)
			} else {
				for k := 0; k < fanout; k++ {
					sampled = append(sampled, nbrs[rng.Intn(len(nbrs))])
				}
			}
			w := 1.0 / float64(len(sampled))
			for _, u := range sampled {
				coords = append(coords, sparse.Coord{Row: row, Col: intern(u), Val: w})
			}
		}
		blocks[l] = block{
			adj:  sparse.NewCSR(len(outputs), len(srcs), coords),
			srcs: srcs,
		}
		outputs = srcs
	}
	return blocks
}

// chain is the sampled operand: layer l aggregates over the rectangular
// block blocks[l-1] and its transpose, held in reusable per-layer workspaces
// so the backward pass stops allocating once they have grown to the sampled
// block sizes. Layer 1 comes in three forms: the block itself over feature
// rows gathered from x (the serial trainer), the distributed halo gather of
// the rank's feature slice, or an aggregation already landed by the
// reference gather. With a rank set, every local SpMM is charged to it.
type chain struct {
	blocks []block
	labels []int         // the batch's classes, aligned with the top block's rows
	x      *dense.Matrix // serial: the features H⁰ is gathered from
	input  *dense.Matrix // H⁰: the gather buffer, else the features layer 1 consumes
	gather *distmm.SampledGather
	landed *dense.Matrix
	rank   *comm.Rank

	adjT         []sparse.CSR
	tposeScratch []int
}

func (c *chain) Input() *dense.Matrix {
	if c.x != nil {
		srcs := c.blocks[0].srcs
		c.input = dense.Reshape(c.input, len(srcs), c.x.Cols)
		c.x.GatherRowsInto(c.input.Data, srcs)
	}
	return c.input
}

func (c *chain) Rows(l int) int  { return c.blocks[l-1].adj.NumRows }
func (c *chain) Symmetric() bool { return false }

func (c *chain) Aggregate(l int, dst, h *dense.Matrix) {
	switch {
	case l == 1 && c.gather != nil:
		c.gather.MultiplyInto(c.rank, h, dst)
	case l == 1 && c.landed != nil:
		dst.CopyFrom(c.landed)
	default:
		c.spmm(c.blocks[l-1].adj, dst, h)
	}
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
	adj := c.blocks[l].adj
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

// Step runs one mini-batch: sample, forward, backward, update. Returns the
// batch's mean loss.
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
	t.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
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
