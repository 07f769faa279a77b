package minibatch

import (
	"context"
	"fmt"
	"math"
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
// its replica — the same replica discipline as gcn.Distributed.

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

// stepBottoms compiles every rank's global bottom block for one step and
// returns this rank's full layered blocks and batch alongside. The global
// batch size is the loss normalizer (deterministic, never exchanged).
func (d *Dist) stepBottoms(me, epoch, step int, orders [][]int) (bottoms []*sparse.CSR, mine []block, myBatch []int, globalN int) {
	n := d.Layout.N()
	bottoms = make([]*sparse.CSR, d.World.P)
	for rr := 0; rr < d.World.P; rr++ {
		batch := d.batchOf(orders[rr], step)
		globalN += len(batch)
		blks := d.sampleStep(rr, epoch, step, batch)
		bottoms[rr] = globalBottom(blks[0], n)
		if rr == me {
			mine, myBatch = blks, batch
		}
	}
	return bottoms, mine, myBatch, globalN
}

// distRank is one rank's persistent sampled-training state.
type distRank struct {
	lo, hi    int
	xLocal    *dense.Matrix
	model     *gcn.Model
	newOpt    func() opt.Optimizer
	optimizer opt.Optimizer
	gg        *comm.Group
	gather    *distmm.SampledGather
	// Reusable backward transpose workspaces (one per layer boundary).
	adjT         []sparse.CSR
	tposeScratch []int
	grads        []*dense.Matrix
	red, redOut  [2]float64
}

func (d *Dist) newDistRank(r *comm.Rank) *distRank {
	lo, hi := d.Layout.Range(r.ID)
	rs := &distRank{
		lo: lo, hi: hi,
		xLocal: d.X.SliceRows(lo, hi).Clone(),
		model:  gcn.NewModel(d.ModelSeed, d.Dims),
		newOpt: d.NewOpt,
		gg:     d.World.WorldGroup(),
		adjT:   make([]sparse.CSR, len(d.Dims)-1),
		grads:  make([]*dense.Matrix, len(d.Dims)-1),
	}
	rs.optimizer = rs.newOpt()
	for l := 0; l+1 < len(d.Dims); l++ {
		rs.grads[l] = dense.New(d.Dims[l], d.Dims[l+1])
	}
	return rs
}

// rankStep runs one collective sampled step for one rank: compile the
// gather, forward, globally scaled loss, backward, all-reduced update.
// Returns the global (lossSum, correct) of the step.
func (d *Dist) rankStep(r *comm.Rank, rs *distRank, epoch, step int, orders [][]int) (lossSum, correct float64, err error) {
	bottoms, blocks, batch, globalN := d.stepBottoms(r.ID, epoch, step, orders)
	if rs.gather == nil {
		rs.gather = distmm.NewSampledGather(d.World, bottoms, d.Layout)
	} else {
		rs.gather.Recompile(bottoms)
	}
	rs.gather.SetExecMode(d.Cfg.Exec)
	if d.Cfg.Verify {
		if err := distmm.Verify(rs.gather.Plan()); err != nil {
			return 0, 0, err
		}
	}

	model := rs.model
	L := model.Layers()
	params := d.World.Params
	f := d.X.Cols

	// Forward: the gather lands the layer-0 frontier aggregation; the
	// remaining layers run on this rank's own sampled rectangular blocks.
	ps := make([]*dense.Matrix, L+1)
	zs := make([]*dense.Matrix, L+1)
	hs := make([]*dense.Matrix, L+1)
	ps[1] = dense.New(rs.gather.OutRows(r.ID), f)
	rs.gather.MultiplyInto(r, rs.xLocal, ps[1])
	for l := 1; l <= L; l++ {
		if l > 1 {
			ps[l] = blocks[l-1].adj.SpMM(hs[l-1])
			r.ChargeCompute("local", params.SpMMTime(blocks[l-1].adj.Flops(hs[l-1].Cols)))
		}
		w := model.Weights[l-1]
		zs[l] = dense.MatMul(ps[l], w)
		r.ChargeCompute("local", params.GEMMTime(2*int64(ps[l].Rows)*int64(w.Rows)*int64(w.Cols)))
		if l < L {
			hs[l] = zs[l].Clone()
			hs[l].ReLU()
		} else {
			hs[l] = zs[l]
		}
	}

	// Loss and output gradient over this rank's batch rows, scaled by the
	// global step example count so the all-reduced gradients are the global
	// per-example mean.
	probs := hs[L].Clone()
	dense.SoftmaxRows(probs)
	g := dense.New(len(batch), d.Dims[L])
	var localLoss, localCorrect float64
	inv := 0.0
	if globalN > 0 {
		inv = 1.0 / float64(globalN)
	}
	for i, v := range batch {
		row := probs.Row(i)
		y := d.Labels[v]
		p := row[y]
		if p < 1e-12 {
			p = 1e-12
		}
		localLoss -= math.Log(p)
		grow := g.Row(i)
		best, bestv := 0, row[0]
		for j, pv := range row {
			grow[j] = pv * inv
			if pv > bestv {
				best, bestv = j, pv
			}
		}
		grow[y] -= inv
		if best == y {
			localCorrect++
		}
	}
	rs.red[0], rs.red[1] = localLoss, localCorrect
	rs.gg.AllReduceSumInto(r, rs.red[:], rs.redOut[:], "allreduce")
	lossSum, correct = rs.redOut[0], rs.redOut[1]

	// Backward through the rectangular block chain; weight gradients are
	// all-reduced so every replica applies the identical update.
	for l := L; l >= 1; l-- {
		yl := dense.MatMulTransA(ps[l], g)
		r.ChargeCompute("local", params.GEMMTime(2*int64(ps[l].Rows)*int64(yl.Rows)*int64(yl.Cols)))
		rs.gg.AllReduceSumInto(r, yl.Data, rs.grads[l-1].Data, "allreduce")
		if l == 1 {
			break
		}
		w := model.Weights[l-1]
		upstream := dense.MatMulTransB(g, w)
		r.ChargeCompute("local", params.GEMMTime(2*int64(g.Rows)*int64(w.Cols)*int64(w.Rows)))
		if cap(rs.tposeScratch) < blocks[l-1].adj.NumCols {
			rs.tposeScratch = make([]int, blocks[l-1].adj.NumCols)
		}
		blocks[l-1].adj.TransposeInto(&rs.adjT[l-1], rs.tposeScratch[:blocks[l-1].adj.NumCols])
		gPrev := rs.adjT[l-1].SpMM(upstream)
		r.ChargeCompute("local", params.SpMMTime(rs.adjT[l-1].Flops(upstream.Cols)))
		gPrev.Hadamard(zs[l-1].ReLUDeriv())
		g = gPrev
	}
	rs.optimizer.Step(model.Weights, rs.grads)
	return lossSum, correct, nil
}

// DistStepper drives a Dist trainer one epoch at a time, keeping every
// rank's state alive between calls — the sampled counterpart of
// gcn.Stepper, with the same dirty/SetModel recovery contract.
type DistStepper struct {
	d     *Dist
	ranks []*distRank
	epoch int
	dirty bool
	// predicted accumulates the byte-exact traffic prediction of every
	// executed step: the gather plans' Volumes plus the loss and gradient
	// all-reduces. Equal to the measured ledger delta by construction.
	predicted []distmm.RankVolume
}

// Stepper builds the persistent per-rank state and returns the driver
// positioned at epoch 0. On a multi-process (TCP) world only the hosted
// rank's slot is populated.
func (d *Dist) Stepper() *DistStepper {
	st := &DistStepper{d: d, ranks: make([]*distRank, d.World.P), predicted: make([]distmm.RankVolume, d.World.P)}
	d.World.Run(func(r *comm.Rank) {
		st.ranks[r.ID] = d.newDistRank(r)
	})
	return st
}

// addPredicted folds one executed step's exact traffic prediction into the
// running ledger: the gather plan at the feature width plus one loss
// all-reduce and L weight-gradient all-reduces over the world.
func (st *DistStepper) addPredicted(plan *distmm.Plan) {
	d := st.d
	for rank, v := range plan.Volumes(d.X.Cols) {
		st.predicted[rank].SentBytes += v.SentBytes
		st.predicted[rank].RecvBytes += v.RecvBytes
		st.predicted[rank].MsgsSent += v.MsgsSent
	}
	addAll := func(n int) {
		s, rcv, m := comm.AllReduceVolume(n, d.World.P)
		for rank := range st.predicted {
			st.predicted[rank].SentBytes += s
			st.predicted[rank].RecvBytes += rcv
			st.predicted[rank].MsgsSent += m
		}
	}
	addAll(2) // loss / correct reduction
	for l := 0; l+1 < len(d.Dims); l++ {
		addAll(d.Dims[l] * d.Dims[l+1])
	}
}

// PredictedVolumes returns the cumulative byte-exact traffic prediction of
// every epoch stepped so far, per rank.
func (st *DistStepper) PredictedVolumes() []distmm.RankVolume {
	return append([]distmm.RankVolume(nil), st.predicted...)
}

// StepNCtx runs n consecutive sampled epochs inside a single collective
// launch. A fault in any rank aborts the collective mid-epoch and returns
// the typed error; the trainer is then dirty (replicas may have diverged)
// until SetModel restores a checkpoint. The epoch counter does not advance
// on failure and no partial results are returned — and because sampling is
// seeded by absolute epoch and step indices, the retry after a rollback
// replays bit-identical batches.
func (st *DistStepper) StepNCtx(ctx context.Context, n int) ([]gcn.EpochResult, error) {
	if st.dirty {
		return nil, gcn.ErrInconsistent
	}
	d := st.d
	steps := d.stepsPerEpoch()
	if steps == 0 {
		return nil, ErrEmptyTrainSet
	}
	var results []gcn.EpochResult // appended by the recorder rank alone, read after the join
	recorder := d.World.LocalRank()
	err := d.World.RunCtx(ctx, func(r *comm.Rank) error {
		rs := st.ranks[r.ID]
		for e := 0; e < n; e++ {
			epoch := st.epoch + e
			orders := make([][]int, d.World.P)
			globalExamples := 0
			for rr := 0; rr < d.World.P; rr++ {
				orders[rr] = d.epochOrder(rr, epoch)
				globalExamples += len(orders[rr])
			}
			var lossSum, correct float64
			for s := 0; s < steps; s++ {
				ls, c, err := d.rankStep(r, rs, epoch, s, orders)
				if err != nil {
					return err
				}
				lossSum += ls
				correct += c
				if r.ID == recorder {
					st.addPredicted(rs.gather.Plan())
				}
			}
			if r.ID == recorder {
				results = append(results, gcn.EpochResult{
					Epoch:    epoch,
					Loss:     lossSum / float64(globalExamples),
					TrainAcc: correct / float64(globalExamples),
				})
			}
		}
		return nil
	})
	if err != nil {
		st.dirty = true
		return nil, err
	}
	st.epoch += n
	return results, nil
}

// Epoch returns the number of epochs stepped so far.
func (st *DistStepper) Epoch() int { return st.epoch }

// SetEpoch overrides the epoch counter (checkpoint restore). Sampling is
// seeded by absolute epoch index, so restoring the counter restores the
// exact batch sequence.
func (st *DistStepper) SetEpoch(e int) { st.epoch = e }

// Model returns the local rank's live weight replica (identical on every
// rank). Clone before mutating.
func (st *DistStepper) Model() *gcn.Model { return st.ranks[st.d.World.LocalRank()].model }

// Dirty reports whether an aborted epoch left the replicas possibly
// divergent.
func (st *DistStepper) Dirty() bool { return st.dirty }

// SetModel replaces every rank's replica with an independent copy of m and
// resets optimizer state, clearing the dirty condition.
func (st *DistStepper) SetModel(m *gcn.Model) error {
	local := st.d.World.LocalRank()
	have := st.ranks[local].model
	if len(m.Weights) != len(have.Weights) {
		return fmt.Errorf("minibatch: restore %d layers into %d-layer trainer", len(m.Weights), len(have.Weights))
	}
	for l, w := range m.Weights {
		hw := have.Weights[l]
		if w.Rows != hw.Rows || w.Cols != hw.Cols {
			return fmt.Errorf("minibatch: restore W%d %dx%d into %dx%d", l+1, w.Rows, w.Cols, hw.Rows, hw.Cols)
		}
	}
	for _, rs := range st.ranks {
		if rs == nil {
			continue // rank hosted by another process (TCP transport)
		}
		rs.model = m.Clone()
		rs.optimizer = rs.newOpt()
	}
	st.dirty = false
	return nil
}

// ReferenceEpochs trains the serial mirror of the distributed sampled
// trainer: the same stateless seeds produce the same blocks, the gather
// runs through distmm.SampledGatherReference (the executor's accumulation
// order), and the loss and gradient reductions sum rank contributions in
// world-group member order — so every epoch loss is bit-identical to a
// distributed run on any transport and exec mode. The conformance anchor.
func (d *Dist) ReferenceEpochs(epochs int) []gcn.EpochResult {
	model := gcn.NewModel(d.ModelSeed, d.Dims)
	newOpt := d.NewOpt
	if newOpt == nil {
		newOpt = func() opt.Optimizer { return &opt.SGD{LR: 0.05} }
	}
	optimizer := newOpt()
	L := len(d.Dims) - 1
	steps := d.stepsPerEpoch()
	P := d.World.P
	var results []gcn.EpochResult
	grads := make([]*dense.Matrix, L)
	for l := 0; l < L; l++ {
		grads[l] = dense.New(d.Dims[l], d.Dims[l+1])
	}
	for epoch := 0; epoch < epochs; epoch++ {
		orders := make([][]int, P)
		globalExamples := 0
		for rr := 0; rr < P; rr++ {
			orders[rr] = d.epochOrder(rr, epoch)
			globalExamples += len(orders[rr])
		}
		var epochLoss, epochCorrect float64
		for s := 0; s < steps; s++ {
			// Re-derive every rank's blocks and the shared gather.
			n := d.Layout.N()
			bottoms := make([]*sparse.CSR, P)
			blocksOf := make([][]block, P)
			batches := make([][]int, P)
			globalN := 0
			for rr := 0; rr < P; rr++ {
				batches[rr] = d.batchOf(orders[rr], s)
				globalN += len(batches[rr])
				blocksOf[rr] = d.sampleStep(rr, epoch, s, batches[rr])
				bottoms[rr] = globalBottom(blocksOf[rr][0], n)
			}
			aggs := distmm.SampledGatherReference(bottoms, d.Layout, d.X)
			inv := 0.0
			if globalN > 0 {
				inv = 1.0 / float64(globalN)
			}
			// Per-rank forward/backward; reductions accumulate in rank
			// order, matching AllReduceSumInto's member-order sum.
			for l := 0; l < L; l++ {
				grads[l].Zero()
			}
			var lossSum, correct float64
			yls := make([][]*dense.Matrix, P)
			for rr := 0; rr < P; rr++ {
				blocks, batch := blocksOf[rr], batches[rr]
				ps := make([]*dense.Matrix, L+1)
				zs := make([]*dense.Matrix, L+1)
				hs := make([]*dense.Matrix, L+1)
				ps[1] = aggs[rr]
				for l := 1; l <= L; l++ {
					if l > 1 {
						ps[l] = blocks[l-1].adj.SpMM(hs[l-1])
					}
					zs[l] = dense.MatMul(ps[l], model.Weights[l-1])
					if l < L {
						hs[l] = zs[l].Clone()
						hs[l].ReLU()
					} else {
						hs[l] = zs[l]
					}
				}
				probs := hs[L].Clone()
				dense.SoftmaxRows(probs)
				g := dense.New(len(batch), d.Dims[L])
				for i, v := range batch {
					row := probs.Row(i)
					y := d.Labels[v]
					p := row[y]
					if p < 1e-12 {
						p = 1e-12
					}
					lossSum -= math.Log(p)
					grow := g.Row(i)
					best, bestv := 0, row[0]
					for j, pv := range row {
						grow[j] = pv * inv
						if pv > bestv {
							best, bestv = j, pv
						}
					}
					grow[y] -= inv
					if best == y {
						correct++
					}
				}
				yls[rr] = make([]*dense.Matrix, L)
				for l := L; l >= 1; l-- {
					yls[rr][l-1] = dense.MatMulTransA(ps[l], g)
					if l == 1 {
						break
					}
					upstream := dense.MatMulTransB(g, model.Weights[l-1])
					gPrev := blocks[l-1].adj.Transpose().SpMM(upstream)
					gPrev.Hadamard(zs[l-1].ReLUDeriv())
					g = gPrev
				}
			}
			for l := 0; l < L; l++ {
				for rr := 0; rr < P; rr++ {
					grads[l].Add(yls[rr][l])
				}
			}
			optimizer.Step(model.Weights, grads)
			epochLoss += lossSum
			epochCorrect += correct
		}
		results = append(results, gcn.EpochResult{
			Epoch:    epoch,
			Loss:     epochLoss / float64(globalExamples),
			TrainAcc: epochCorrect / float64(globalExamples),
		})
	}
	return results
}
