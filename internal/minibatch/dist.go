package minibatch

import (
	"fmt"
	"math/rand"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/opt"
	"sagnn/internal/sparse"
)

// This file is the distributed sampled trainer: GraphSAGE-style neighbor
// sampling over the partitioned (permuted) graph, with the halo exchange of
// boundary features compiled per batch into a distmm rectangular Plan
// (SampledGather). The determinism contract is stateless seeding — every
// batch's sampling stream is derived from (seed, rank, epoch, step), so
//
//   - every process re-derives every rank's frontier blocks locally and
//     compiles the identical exchange plan with full cross-rank knowledge
//     (no index negotiation over the wire),
//   - losses are bit-identical across the sim and TCP transports and across
//     both exec modes (the Plan executor's guarantee), and
//   - a retry after an aborted epoch replays the exact same batches, so
//     recovery is bit-identical too.
//
// Only the bottom layer communicates: the gather lands each rank's layer-0
// frontier aggregation, and the remaining layers run on the rank's own
// sampled rectangular blocks. Per step, the loss term and the per-layer
// weight gradients are all-reduced and every rank applies the same update to
// its replica — the step is gcn.Workspace.Gradients, the one the full-batch
// trainers run, over the sampled chain operand (minibatch.go).

// DistConfig configures distributed sampled training.
type DistConfig struct {
	// Fanout is the number of sampled neighbors per vertex per layer.
	Fanout int
	// BatchSize is the per-rank mini-batch size over the rank's own
	// training vertices.
	BatchSize int
	// Seed roots the sampling streams; each (rank, epoch, step) derives its
	// own deterministic stream from it.
	Seed int64
	// Exec selects the plan executor for the per-batch gathers.
	Exec distmm.ExecMode
	// Verify statically checks every compiled batch plan with distmm.Verify
	// before executing it.
	Verify bool
}

// Dist trains a GCN with per-rank neighbor sampling over a block-row
// layout. X, Labels, Train are global and already permuted into the
// layout's vertex order (gcn.ApplyPerm); AHat is the global permuted Â
// whose structure defines the neighbor lists sampling draws from.
type Dist struct {
	World  *comm.World
	Layout distmm.Layout
	AHat   *sparse.CSR
	X      *dense.Matrix
	Labels []int
	Train  []int
	Dims   []int
	// ModelSeed seeds the weight replicas (identical on every rank).
	ModelSeed int64
	// NewOpt constructs each rank's optimizer; nil means SGD at 0.05.
	NewOpt func() opt.Optimizer
	Cfg    DistConfig

	// nbrs[v] is v's neighbor list (Â row minus the self loop), the
	// deterministic structure every sampling stream draws from.
	nbrs [][]int
	// trainOf[r] lists rank r's training vertices (global permuted ids).
	trainOf [][]int
}

// NewDist validates shapes and precomputes the sampling structure.
func NewDist(w *comm.World, layout distmm.Layout, aHat *sparse.CSR, x *dense.Matrix,
	labels, train []int, dims []int, modelSeed int64, newOpt func() opt.Optimizer, cfg DistConfig) *Dist {
	if layout.Blocks() != w.P {
		panic(fmt.Sprintf("minibatch: layout has %d blocks for %d ranks", layout.Blocks(), w.P))
	}
	if layout.N() != x.Rows || aHat.NumRows != x.Rows || aHat.NumCols != x.Rows {
		panic(fmt.Sprintf("minibatch: Â %dx%d, X %d rows, layout n=%d", aHat.NumRows, aHat.NumCols, x.Rows, layout.N()))
	}
	if len(labels) != x.Rows {
		panic("minibatch: labels misaligned")
	}
	if dims[0] != x.Cols {
		panic(fmt.Sprintf("minibatch: dims[0]=%d, X has %d features", dims[0], x.Cols))
	}
	if cfg.Fanout < 1 || cfg.BatchSize < 1 {
		panic(fmt.Sprintf("minibatch: fanout %d batch %d", cfg.Fanout, cfg.BatchSize))
	}
	if newOpt == nil {
		newOpt = func() opt.Optimizer { return &opt.SGD{LR: 0.05} }
	}
	d := &Dist{
		World: w, Layout: layout, AHat: aHat, X: x, Labels: labels, Train: train,
		Dims: dims, ModelSeed: modelSeed, NewOpt: newOpt, Cfg: cfg,
	}
	d.nbrs = make([][]int, aHat.NumRows)
	for v := 0; v < aHat.NumRows; v++ {
		row := aHat.ColIdx[aHat.RowPtr[v]:aHat.RowPtr[v+1]]
		lst := make([]int, 0, len(row))
		for _, u := range row {
			if u != v {
				lst = append(lst, u)
			}
		}
		d.nbrs[v] = lst
	}
	d.trainOf = make([][]int, w.P)
	for b := 0; b < w.P; b++ {
		lo, hi := layout.Range(b)
		for _, v := range train {
			if v >= lo && v < hi {
				d.trainOf[b] = append(d.trainOf[b], v)
			}
		}
	}
	return d
}

// mixSeed derives the per-(rank, epoch, step) sampling seed: an invertible
// avalanche mix so nearby coordinates land in unrelated streams, and a pure
// function of its inputs so retries replay identical batches.
func mixSeed(seed int64, rank, epoch, step int) int64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	h = (h ^ uint64(rank+1)*0xBF58476D1CE4E5B9) * 0x94D049BB133111EB
	h = (h ^ uint64(epoch+1)*0xBF58476D1CE4E5B9) * 0x94D049BB133111EB
	h = (h ^ uint64(step+1)*0xBF58476D1CE4E5B9) * 0x94D049BB133111EB
	return int64(h ^ (h >> 31))
}

// epochOrder returns rank's training vertices in epoch's deterministic
// shuffled order (the step index selects contiguous batches from it).
func (d *Dist) epochOrder(rank, epoch int) []int {
	order := append([]int(nil), d.trainOf[rank]...)
	rng := rand.New(rand.NewSource(mixSeed(d.Cfg.Seed, rank, epoch, -1)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// stepsPerEpoch is the collective step count: the slowest rank's batch
// count. Ranks that run out of local batches participate with empty
// frontiers so every collective stays fully subscribed.
func (d *Dist) stepsPerEpoch() int {
	steps := 0
	for _, t := range d.trainOf {
		s := (len(t) + d.Cfg.BatchSize - 1) / d.Cfg.BatchSize
		if s > steps {
			steps = s
		}
	}
	return steps
}

// batchOf slices step s's batch from an epoch order (empty when exhausted).
func (d *Dist) batchOf(order []int, s int) []int {
	lo := s * d.Cfg.BatchSize
	if lo >= len(order) {
		return nil
	}
	hi := lo + d.Cfg.BatchSize
	if hi > len(order) {
		hi = len(order)
	}
	return order[lo:hi]
}

// sampleStep draws rank's layered blocks for (epoch, step): the stream is
// derived from the coordinates alone, so any process (and any retry)
// reproduces it exactly.
func (d *Dist) sampleStep(rank, epoch, step int, batch []int) []block {
	rng := rand.New(rand.NewSource(mixSeed(d.Cfg.Seed, rank, epoch, step)))
	return sampleLayeredBlocks(rng, func(v int) []int { return d.nbrs[v] }, batch, len(d.Dims)-1, d.Cfg.Fanout)
}

// globalBottom widens a batch's bottom block to the global vertex space:
// columns become the global (permuted) ids the frontier touches, the shape
// the halo-gather plan compiler partitions by layout.
func globalBottom(b block, n int) *sparse.CSR {
	coords := make([]sparse.Coord, 0, b.adj.NNZ())
	for r := 0; r < b.adj.NumRows; r++ {
		for p := b.adj.RowPtr[r]; p < b.adj.RowPtr[r+1]; p++ {
			coords = append(coords, sparse.Coord{Row: r, Col: b.srcs[b.adj.ColIdx[p]], Val: b.adj.Val[p]})
		}
	}
	return sparse.NewCSR(b.adj.NumRows, n, coords)
}

// epochOrders returns every rank's shuffled training order for an epoch.
func (d *Dist) epochOrders(epoch int) [][]int {
	orders := make([][]int, d.World.P)
	for rr := range orders {
		orders[rr] = d.epochOrder(rr, epoch)
	}
	return orders
}

// examples is the global number of training examples per epoch.
func (d *Dist) examples() int {
	n := 0
	for _, t := range d.trainOf {
		n += len(t)
	}
	return n
}

// stepBlocks re-derives every rank's batch and layered blocks for one step,
// plus the global bottom blocks the gather plan is compiled from. The global
// batch size is the loss normalizer (deterministic, never exchanged).
func (d *Dist) stepBlocks(epoch, step int, orders [][]int) (bottoms []*sparse.CSR, blocksOf [][]block, batches [][]int, globalN int) {
	P := d.World.P
	bottoms, blocksOf, batches = make([]*sparse.CSR, P), make([][]block, P), make([][]int, P)
	for rr := 0; rr < P; rr++ {
		batches[rr] = d.batchOf(orders[rr], step)
		globalN += len(batches[rr])
		blocksOf[rr] = d.sampleStep(rr, epoch, step, batches[rr])
		bottoms[rr] = globalBottom(blocksOf[rr][0], d.Layout.N())
	}
	return bottoms, blocksOf, batches, globalN
}

// sampler is the sampled epoch body and the state it keeps between steps:
// per hosted rank, the block-chain operand with its reusable gather plan,
// transposes and label buffer.
type sampler struct {
	d      *Dist
	chains []chain
	// predicted accumulates the byte-exact traffic prediction of every
	// executed step: the gather plans' Volumes plus the loss and gradient
	// all-reduces. Equal to the measured ledger delta by construction.
	predicted []distmm.RankVolume
}

func (d *Dist) newSampler() *sampler {
	P := d.World.P
	return &sampler{d: d, chains: make([]chain, P), predicted: make([]distmm.RankVolume, P)}
}

// rankEpoch runs one collective sampled epoch for one rank: per step,
// compile the gather, then the shared step — forward over the gathered
// chain, loss scaled by the global step example count (so the all-reduced
// gradients are the global per-example mean), backward, update. Returns
// the epoch's global loss sum and correct count.
func (sm *sampler) rankEpoch(r *comm.Rank, rep *gcn.Replica, epoch int) (lossSum, correct float64, err error) {
	d := sm.d
	c := &sm.chains[r.ID]
	c.rank, c.input = r, rep.X
	orders := d.epochOrders(epoch)
	for s, steps := 0, d.stepsPerEpoch(); s < steps; s++ {
		bottoms, blocksOf, batches, globalN := d.stepBlocks(epoch, s, orders)
		if c.gather == nil {
			c.gather = distmm.NewSampledGather(d.World, bottoms, d.Layout)
		} else {
			c.gather.Recompile(bottoms)
		}
		c.gather.SetExecMode(d.Cfg.Exec)
		if d.Cfg.Verify {
			if err := distmm.Verify(c.gather.Plan()); err != nil {
				return 0, 0, err
			}
		}
		c.load(blocksOf[r.ID], d.Labels, batches[r.ID])
		ls, cr, err := rep.WS.Step(rep.Opt, rep.Model, gcn.GCNConv, c, nil, c.labels, globalN,
			gcn.Collective{Rank: r, Group: rep.Group})
		if err != nil {
			return 0, 0, err
		}
		lossSum += ls
		correct += cr
		if r.ID == d.World.LocalRank() {
			sm.addPredicted(c.gather.Plan())
		}
	}
	return lossSum, correct, nil
}

// addPredicted folds one executed step's exact traffic prediction into the
// running ledger: the gather plan at the feature width plus one loss
// all-reduce and L weight-gradient all-reduces over the world.
func (sm *sampler) addPredicted(plan *distmm.Plan) {
	d := sm.d
	for rank, v := range plan.Volumes(d.X.Cols) {
		sm.predicted[rank].SentBytes += v.SentBytes
		sm.predicted[rank].RecvBytes += v.RecvBytes
		sm.predicted[rank].MsgsSent += v.MsgsSent
	}
	addAll := func(n int) {
		s, rcv, m := comm.AllReduceVolume(n, d.World.P)
		for rank := range sm.predicted {
			sm.predicted[rank].SentBytes += s
			sm.predicted[rank].RecvBytes += rcv
			sm.predicted[rank].MsgsSent += m
		}
	}
	addAll(2) // loss / correct reduction
	for l := 0; l+1 < len(d.Dims); l++ {
		addAll(d.Dims[l] * d.Dims[l+1])
	}
}

// Body returns a sampled epoch body for a gcn.Stepper whose replicas hold
// this trainer's model shape and layout slices — how a session steps the
// replicas it trains full-batch through sampled epochs too.
func (d *Dist) Body() gcn.EpochBody { return d.newSampler().rankEpoch }

// DistStepper is a gcn.Stepper running the sampled epoch body — same
// dirty/SetModel recovery contract, and because sampling is seeded by
// absolute epoch and step indices, the retry after a rollback replays
// bit-identical batches — plus the traffic prediction of what it ran.
type DistStepper struct {
	*gcn.Stepper
	sm *sampler
}

// Stepper builds the per-rank replicas and returns the driver positioned at
// epoch 0.
func (d *Dist) Stepper() *DistStepper {
	sm := d.newSampler()
	st := gcn.NewStepper(d.World, d.examples(), sm.rankEpoch, func(r *comm.Rank) *gcn.Replica {
		lo, hi := d.Layout.Range(r.ID)
		return &gcn.Replica{
			X:      d.X.SliceRows(lo, hi).Clone(),
			Model:  gcn.NewModel(d.ModelSeed, d.Dims),
			NewOpt: d.NewOpt,
			Group:  d.World.WorldGroup(),
		}
	})
	return &DistStepper{Stepper: st, sm: sm}
}

// PredictedVolumes returns the cumulative byte-exact traffic prediction of
// every epoch stepped so far, per rank.
func (st *DistStepper) PredictedVolumes() []distmm.RankVolume {
	return append([]distmm.RankVolume(nil), st.sm.predicted...)
}

// ReferenceEpochs trains the serial mirror of the distributed sampled
// trainer: the same stateless seeds produce the same blocks, the gather
// runs through distmm.SampledGatherReference (the executor's accumulation
// order), every rank's step is the shared one over its chain, and the loss
// and gradient reductions sum rank contributions in world-group member
// order — so every epoch loss is bit-identical to a distributed run on any
// transport and exec mode. The conformance anchor.
func (d *Dist) ReferenceEpochs(epochs int) []gcn.EpochResult {
	model := gcn.NewModel(d.ModelSeed, d.Dims)
	optimizer := d.NewOpt()
	grads := make([]*dense.Matrix, len(d.Dims)-1)
	for l := range grads {
		grads[l] = dense.New(d.Dims[l], d.Dims[l+1])
	}
	var (
		ws      gcn.Workspace
		results []gcn.EpochResult
	)
	c := chain{input: d.X}
	examples := float64(d.examples())
	for epoch := 0; epoch < epochs; epoch++ {
		orders := d.epochOrders(epoch)
		var epochLoss, epochCorrect float64
		for s, steps := 0, d.stepsPerEpoch(); s < steps; s++ {
			bottoms, blocksOf, batches, globalN := d.stepBlocks(epoch, s, orders)
			aggs := distmm.SampledGatherReference(bottoms, d.Layout, d.X)
			// Reductions accumulate in rank order, matching
			// AllReduceSumInto's member-order sum from zero.
			for l := range grads {
				grads[l].Zero()
			}
			var lossSum, correct float64
			for rr := range blocksOf {
				c.landed = aggs[rr]
				c.load(blocksOf[rr], d.Labels, batches[rr])
				// Some rank always has a batch in a step, so globalN > 0.
				ls, cr, yl, _ := ws.Gradients(model, gcn.GCNConv, &c, nil, c.labels, globalN, gcn.Collective{})
				lossSum += ls
				correct += cr
				for l := range grads {
					grads[l].Add(yl[l])
				}
			}
			optimizer.Step(model.Weights, grads)
			epochLoss += lossSum
			epochCorrect += correct
		}
		results = append(results, gcn.EpochResult{
			Epoch:    epoch,
			Loss:     epochLoss / examples,
			TrainAcc: epochCorrect / examples,
		})
	}
	return results
}
