package minibatch

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
//   - every process derives every rank's frontier blocks locally, once per
//     step, and compiles the identical exchange plan with full cross-rank
//     knowledge (no index negotiation over the wire); the ranks a process
//     hosts share that one derivation read-only (sampler.step),
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
// trainers run, over the sampled chain operand (minibatch.go). Every step's
// gather plan is statically verified (distmm.Verify) before any rank runs it.

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

	// self[v] is the position of v's own column within row v of Â (the
	// row's length when it stores none): a vertex's neighbor list, the
	// deterministic structure every sampling stream draws from, is its Â row
	// around that position.
	self []int
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
	d.self = selfPositions(aHat)
	d.trainOf = make([][]int, w.P)
	for _, v := range train {
		b := layout.Owner(v)
		d.trainOf[b] = append(d.trainOf[b], v)
	}
	return d
}

// selfPositions returns, per vertex, the position of its own column within
// its row of a — the row's length when the row stores none.
func selfPositions(a *sparse.CSR) []int {
	self := make([]int, a.NumRows)
	for v := range self {
		row := a.ColIdx[a.RowPtr[v]:a.RowPtr[v+1]]
		self[v] = sort.SearchInts(row, v)
		if self[v] < len(row) && row[self[v]] != v {
			self[v] = len(row)
		}
	}
	return self
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

// stepsPerEpoch is the collective step count: the slowest rank's batch
// count. Ranks that run out of local batches participate with empty
// frontiers so every collective stays fully subscribed.
func (d *Dist) stepsPerEpoch() int {
	steps := 0
	for _, t := range d.trainOf {
		steps = max(steps, (len(t)+d.Cfg.BatchSize-1)/d.Cfg.BatchSize)
	}
	return steps
}

// derivations counts step derivations process-wide. Tests use it to prove
// that a process derives each (epoch, step) once however many ranks it
// hosts.
var derivations atomic.Int64

// Derivations returns the number of sampled steps derived so far.
func Derivations() int64 { return derivations.Load() }

// rankStream is one rank's sampling stream: the emitter, whose rng is
// reseeded from the coordinates of whatever it draws next so any process
// (and any retry) reproduces it exactly, and the rank's shuffled training
// order for one epoch (the step index selects contiguous batches from it).
type rankStream struct {
	em    emitter
	order []int
	epoch int // the epoch order is shuffled for; -1 before the first
}

// draw writes rank's batch — step s's slice of the epoch order, empty once
// the rank's training vertices are exhausted — and its layered blocks for
// (epoch, s) into st.
func (rs *rankStream) draw(d *Dist, st *step, rank, epoch, s int) {
	rng := rs.em.rng
	if rs.epoch != epoch {
		rs.order, rs.epoch = append(rs.order[:0], d.trainOf[rank]...), epoch
		rng.Seed(mixSeed(d.Cfg.Seed, rank, epoch, -1))
		rng.Shuffle(len(rs.order), func(i, j int) { rs.order[i], rs.order[j] = rs.order[j], rs.order[i] })
	}
	lo := min(s*d.Cfg.BatchSize, len(rs.order))
	st.batches[rank] = append(st.batches[rank][:0], rs.order[lo:min(lo+d.Cfg.BatchSize, len(rs.order))]...)
	rng.Seed(mixSeed(d.Cfg.Seed, rank, epoch, s))
	rs.em.sample(st.chains[rank], st.batches[rank])
}

// step is one derived collective step: every rank's batch and block chain —
// the bottom block over global column ids, the shape the gather plan
// compiler partitions by layout — and the gather compiled from the bottoms.
// The global batch size is the loss normalizer (deterministic, never
// exchanged). Hosted ranks read it; only sampler.step writes it.
type step struct {
	epoch, index int
	batches      [][]int
	chains       [][]block
	bottoms      []*sparse.CSR // &chains[rank][0].adj
	globalN      int
	// plan is the compiled gather and err the verifier's verdict on it: they
	// belong to this step, whatever the shared gather has been recompiled to
	// since.
	plan *distmm.Plan
	err  error
}

// sampler is the sampled epoch body and the state it keeps between steps:
// the P sampling streams, two step slots, the one gather every step is
// compiled into and, per hosted rank, the block-chain operand with its
// transposes and label buffer.
type sampler struct {
	d       *Dist
	chains  []chain
	streams []rankStream

	// mu guards the derivation state below. A step is derived by whichever
	// hosted rank asks for it first and handed to the others when they
	// arrive. It is derived into the slot the previous derivation left
	// alone, so step t's storage is rewritten for step t+2 — safe because a
	// rank asks for t+2 only after it has left step t+1's last all-reduce,
	// which no rank enters before it has finished reading step t. For the
	// same reason the gather is recompiled for step t+1 only after every
	// rank has executed step t's plan. A launch after an abort starts with
	// every rank joined, so both slots are free.
	mu     sync.Mutex
	slots  [2]step
	cur    int // the slot derived last
	gather *distmm.SampledGather

	// predicted accumulates the byte-exact traffic prediction of every
	// executed step: the gather plans' Volumes plus the loss and gradient
	// all-reduces. Equal to the measured ledger delta by construction.
	predicted []distmm.RankVolume
}

func (d *Dist) newSampler() *sampler {
	P, L := d.World.P, len(d.Dims)-1
	sm := &sampler{d: d, chains: make([]chain, P), streams: make([]rankStream, P), predicted: make([]distmm.RankVolume, P)}
	for rr := range sm.streams {
		sm.streams[rr] = rankStream{em: newEmitter(d.AHat, d.self, d.Cfg.Fanout), epoch: -1}
	}
	for i := range sm.slots {
		st := &sm.slots[i]
		st.batches, st.chains, st.bottoms = make([][]int, P), make([][]block, P), make([]*sparse.CSR, P)
		for rr := range st.chains {
			st.chains[rr] = make([]block, L)
			st.bottoms[rr] = &st.chains[rr][0].adj
		}
	}
	return sm
}

// sample derives every rank's batch and blocks for (epoch, s) into st, the P
// independent streams on P goroutines.
func (sm *sampler) sample(st *step, epoch, s int) {
	derivations.Add(1)
	var wg sync.WaitGroup
	for rr := range sm.streams {
		rr := rr
		wg.Add(1)
		go func() {
			defer wg.Done()
			sm.streams[rr].draw(sm.d, st, rr, epoch, s)
		}()
	}
	wg.Wait()
	st.epoch, st.index, st.globalN = epoch, s, 0
	for _, b := range st.batches {
		st.globalN += len(b)
	}
}

// step returns the derived step (epoch, s), deriving it and compiling its
// gather if no hosted rank has asked for it yet. It never waits on another
// rank's progress, only on a derivation in flight.
func (sm *sampler) step(epoch, s int) *step {
	d := sm.d
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if st := &sm.slots[sm.cur]; st.plan != nil && st.epoch == epoch && st.index == s {
		return st
	}
	sm.cur = 1 - sm.cur
	st := &sm.slots[sm.cur]
	sm.sample(st, epoch, s)
	if sm.gather == nil {
		sm.gather = distmm.NewSampledGather(d.World, st.bottoms, d.Layout)
		sm.gather.SetExecMode(d.Cfg.Exec)
	} else {
		sm.gather.Recompile(st.bottoms)
	}
	st.plan = sm.gather.Plan()
	st.err = distmm.Verify(st.plan)
	return st
}

// rankEpoch runs one collective sampled epoch for one rank: per step, take
// the derived step, then the shared step — forward over the gathered chain,
// loss scaled by the global step example count (so the all-reduced
// gradients are the global per-example mean), backward, update. Returns
// the epoch's global loss sum and correct count.
func (sm *sampler) rankEpoch(r *comm.Rank, rep *gcn.Replica, epoch int) (lossSum, correct float64, err error) {
	d := sm.d
	c := &sm.chains[r.ID]
	c.rank, c.x = r, rep.X
	for s, steps := 0, d.stepsPerEpoch(); s < steps; s++ {
		st := sm.step(epoch, s)
		if st.err != nil {
			return 0, 0, st.err
		}
		c.gather = sm.gather
		c.load(st.chains[r.ID], d.Labels, st.batches[r.ID])
		ls, cr, err := rep.WS.Step(rep.Opt, rep.Model, gcn.GCNConv, c, nil, c.labels, st.globalN,
			gcn.Collective{Rank: r, Group: rep.Group})
		if err != nil {
			return 0, 0, err
		}
		lossSum += ls
		correct += cr
		if r.ID == d.World.LocalRank() {
			sm.addPredicted(st.plan)
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
	st := gcn.NewStepper(d.World, len(d.Train), gcn.NoSetup, sm.rankEpoch, func(r *comm.Rank) *gcn.Replica {
		lo, hi := d.Layout.Range(r.ID)
		return &gcn.Replica{
			X:      d.X.SliceRows(lo, hi), // a view: the step only reads it
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
	var c chain
	sm := d.newSampler()
	st := &sm.slots[0]
	examples := float64(len(d.Train))
	for epoch := 0; epoch < epochs; epoch++ {
		var epochLoss, epochCorrect float64
		for s, steps := 0, d.stepsPerEpoch(); s < steps; s++ {
			sm.sample(st, epoch, s)
			aggs := distmm.SampledGatherReference(st.bottoms, d.Layout, d.X)
			// Reductions accumulate in rank order, matching
			// AllReduceSumInto's member-order sum from zero.
			for l := range grads {
				grads[l].Zero()
			}
			var lossSum, correct float64
			for rr := range st.chains {
				c.landed = aggs[rr]
				c.load(st.chains[rr], d.Labels, st.batches[rr])
				// Some rank always has a batch in a step, so globalN > 0.
				ls, cr, yl, _ := ws.Gradients(model, gcn.GCNConv, &c, nil, c.labels, st.globalN, gcn.Collective{})
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
