package gcn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/opt"
)

// ErrInconsistent reports a Step on a trainer whose last collective aborted
// mid-epoch: some ranks may have applied the epoch's weight update and others
// not, so the replicas can no longer be assumed bit-identical. Restoring a
// model checkpoint (SetModel) re-synchronizes every replica and clears the
// condition.
var ErrInconsistent = errors.New("gcn: training state inconsistent after an aborted epoch; restore a model checkpoint before stepping")

// Distributed trains a GCN with block-row parallelism over any
// distmm.Engine (oblivious or sparsity-aware, 1D or 1.5D). Every rank keeps
// a full weight replica; replicas stay bit-consistent because gradients are
// all-reduced before the update.
type Distributed struct {
	World  *comm.World
	Engine distmm.Engine
	// X, Labels, Train are global and already permuted into the engine's
	// vertex order (see ApplyPerm).
	X      *dense.Matrix
	Labels []int
	Train  []int
	Dims   []int
	LR     float64
	Seed   int64
	// NewOpt, if non-nil, constructs each rank's optimizer (each weight
	// replica needs its own optimizer state; determinism keeps replicas
	// identical). Nil means SGD at LR.
	NewOpt func() opt.Optimizer
	// Variant selects the layer operation (GCNConv default or SAGEConv).
	// The communication pattern is identical for both — one distributed
	// SpMM per layer per direction — which is the paper's generality claim.
	Variant Variant
	// FinalModel tracks rank 0's weight replica (identical on every rank)
	// once a Stepper is built or TrainEpochs runs; after training it holds
	// the trained weights.
	FinalModel *Model
}

// NewDistributed validates shapes.
func NewDistributed(w *comm.World, e distmm.Engine, x *dense.Matrix, labels []int, train []int, dims []int, lr float64, seed int64) *Distributed {
	if e.Layout().N() != x.Rows {
		panic(fmt.Sprintf("gcn: engine layout n=%d, X has %d rows", e.Layout().N(), x.Rows))
	}
	if len(labels) != x.Rows {
		panic("gcn: labels misaligned")
	}
	if dims[0] != x.Cols {
		panic(fmt.Sprintf("gcn: dims[0]=%d, X has %d features", dims[0], x.Cols))
	}
	return &Distributed{World: w, Engine: e, X: x, Labels: labels, Train: train, Dims: dims, LR: lr, Seed: seed}
}

// rankWorkspace holds one rank's epoch-persistent training buffers. All
// shapes are fixed by (local rows, layer dims, variant), so every epoch of
// TrainEpochs reuses the same matrices and the steady-state loop performs
// no per-epoch allocations.
type rankWorkspace struct {
	hs  []*dense.Matrix // hs[0] = xLocal; hs[L] aliases zs[L]
	zs  []*dense.Matrix // pre-activations
	ps  []*dense.Matrix // GEMM inputs; aliases agg for GCNConv
	agg []*dense.Matrix // Â·H^{l-1} landing blocks

	probs *dense.Matrix
	g     []*dense.Matrix // g[l] = ∂L/∂Z^l
	ag    []*dense.Matrix // GCNConv: Â·G^l buffers
	dc    []*dense.Matrix // SAGEConv: G^l (W^l)ᵀ buffers
	dp    []*dense.Matrix // SAGEConv: aggregated-path split
	dself []*dense.Matrix // SAGEConv: self-path split
	deriv []*dense.Matrix // σ′(Z^l) buffers, l = 1..L-1

	yl    []*dense.Matrix // local weight-gradient partials
	grads []*dense.Matrix // all-reduced weight gradients

	red, redOut [2]float64 // loss/accuracy reduction staging
}

// newRankWorkspace preallocates every buffer one rank's training loop needs.
func newRankWorkspace(rows int, dims []int, model *Model, variant Variant) *rankWorkspace {
	L := model.Layers()
	sage := variant == SAGEConv
	ws := &rankWorkspace{
		hs:    make([]*dense.Matrix, L+1),
		zs:    make([]*dense.Matrix, L+1),
		ps:    make([]*dense.Matrix, L+1),
		agg:   make([]*dense.Matrix, L+1),
		probs: dense.New(rows, dims[L]),
		g:     make([]*dense.Matrix, L+1),
		ag:    make([]*dense.Matrix, L+1),
		dc:    make([]*dense.Matrix, L+1),
		dp:    make([]*dense.Matrix, L+1),
		dself: make([]*dense.Matrix, L+1),
		deriv: make([]*dense.Matrix, L),
		yl:    make([]*dense.Matrix, L),
		grads: make([]*dense.Matrix, L),
	}
	for l := 1; l <= L; l++ {
		ws.agg[l] = dense.New(rows, dims[l-1])
		if sage {
			ws.ps[l] = dense.New(rows, 2*dims[l-1])
		} else {
			ws.ps[l] = ws.agg[l]
		}
		ws.zs[l] = dense.New(rows, dims[l])
		if l < L {
			ws.hs[l] = dense.New(rows, dims[l])
		} else {
			ws.hs[l] = ws.zs[l]
		}
		ws.g[l] = dense.New(rows, dims[l])
		w := model.Weights[l-1]
		ws.yl[l-1] = dense.New(w.Rows, w.Cols)
		ws.grads[l-1] = dense.New(w.Rows, w.Cols)
	}
	for l := 2; l <= L; l++ {
		if sage {
			ws.dc[l] = dense.New(rows, 2*dims[l-1])
			ws.dp[l] = dense.New(rows, dims[l-1])
			ws.dself[l] = dense.New(rows, dims[l-1])
		} else {
			ws.ag[l] = dense.New(rows, dims[l])
		}
		ws.deriv[l-1] = dense.New(rows, dims[l-1])
	}
	return ws
}

// rankState is one rank's persistent training state: its slice of the
// features, its weight replica, optimizer, and epoch workspace. Building it
// once and reusing it across epochs (and across Stepper.Step calls) is what
// lets a session pause, checkpoint, and resume training without repeating
// the setup work.
type rankState struct {
	lo, hi     int
	localTrain []int
	model      *Model
	newOpt     func() opt.Optimizer
	optimizer  opt.Optimizer
	gg         *comm.Group
	ws         *rankWorkspace
}

// newRankState builds one rank's persistent state (feature slice, weight
// replica, optimizer, workspace).
func (d *Distributed) newRankState(r *comm.Rank) *rankState {
	lay := d.Engine.Layout()
	b := d.Engine.BlockOf(r.ID)
	lo, hi := lay.Range(b)
	xLocal := d.X.SliceRows(lo, hi).Clone()
	localTrain := make([]int, 0)
	for _, v := range d.Train {
		if v >= lo && v < hi {
			localTrain = append(localTrain, v-lo)
		}
	}
	model := NewModelVariant(d.Seed, d.Dims, d.Variant)
	newOpt := d.NewOpt
	if newOpt == nil {
		lr := d.LR
		newOpt = func() opt.Optimizer { return &opt.SGD{LR: lr} }
	}
	ws := newRankWorkspace(hi-lo, d.Dims, model, d.Variant)
	ws.hs[0] = xLocal
	return &rankState{
		lo: lo, hi: hi,
		localTrain: localTrain,
		model:      model,
		newOpt:     newOpt,
		optimizer:  newOpt(),
		gg:         d.Engine.GradGroup(r.ID),
		ws:         ws,
	}
}

// rankEpoch runs one full-batch epoch for one rank: forward, loss, backward,
// update. Returns the global (loss, trainAcc), identical on every rank.
func (d *Distributed) rankEpoch(r *comm.Rank, rs *rankState) (float64, float64) {
	model, ws := rs.model, rs.ws
	L := model.Layers()
	params := d.World.Params
	sage := d.Variant == SAGEConv
	nTrain := float64(len(d.Train))

	// Forward.
	for l := 1; l <= L; l++ {
		d.Engine.MultiplyInto(r, ws.hs[l-1], ws.agg[l])
		if sage {
			dense.HStackInto(ws.ps[l], ws.agg[l], ws.hs[l-1])
		}
		w := model.Weights[l-1]
		dense.MatMulInto(ws.zs[l], ws.ps[l], w)
		r.ChargeCompute("local", params.GEMMTime(2*int64(ws.ps[l].Rows)*int64(w.Rows)*int64(w.Cols)))
		if l < L {
			ws.hs[l].CopyFrom(ws.zs[l])
			ws.hs[l].ReLU()
		}
	}

	// Loss and output gradient on local rows, globally scaled.
	probs := ws.probs
	probs.CopyFrom(ws.hs[L])
	dense.SoftmaxRows(probs)
	g := ws.g[L]
	g.Zero()
	localLoss, localCorrect := 0.0, 0.0
	for _, i := range rs.localTrain {
		row := probs.Row(i)
		y := d.Labels[rs.lo+i]
		p := row[y]
		if p < 1e-12 {
			p = 1e-12
		}
		localLoss -= math.Log(p)
		grow := g.Row(i)
		best, bestv := 0, row[0]
		for j, v := range row {
			grow[j] = v / nTrain
			if v > bestv {
				best, bestv = j, v
			}
		}
		grow[y] -= 1 / nTrain
		if best == y {
			localCorrect++
		}
	}
	ws.red[0], ws.red[1] = localLoss, localCorrect
	rs.gg.AllReduceSumInto(r, ws.red[:], ws.redOut[:], "allreduce")
	loss := ws.redOut[0] / nTrain
	acc := ws.redOut[1] / nTrain

	// Backward.
	for l := L; l >= 1; l-- {
		yl := ws.yl[l-1]
		dense.MatMulTransAInto(yl, ws.ps[l], g)
		r.ChargeCompute("local", params.GEMMTime(2*int64(ws.ps[l].Rows)*int64(yl.Rows)*int64(yl.Cols)))
		rs.gg.AllReduceSumInto(r, yl.Data, ws.grads[l-1].Data, "allreduce")
		if l == 1 {
			break
		}
		w := model.Weights[l-1]
		if sage {
			dense.MatMulTransBInto(ws.dc[l], g, w)
			r.ChargeCompute("local", params.GEMMTime(2*int64(g.Rows)*int64(w.Cols)*int64(w.Rows)))
			ws.dc[l].SplitColsInto(ws.dp[l], ws.dself[l])
			d.Engine.MultiplyInto(r, ws.dp[l], ws.g[l-1])
			ws.g[l-1].Add(ws.dself[l])
		} else {
			d.Engine.MultiplyInto(r, g, ws.ag[l])
			dense.MatMulTransBInto(ws.g[l-1], ws.ag[l], w)
			r.ChargeCompute("local", params.GEMMTime(2*int64(ws.ag[l].Rows)*int64(w.Cols)*int64(w.Rows)))
		}
		ws.zs[l-1].ReLUDerivInto(ws.deriv[l-1])
		ws.g[l-1].Hadamard(ws.deriv[l-1])
		g = ws.g[l-1]
	}
	rs.optimizer.Step(model.Weights, ws.grads)
	return loss, acc
}

// Stepper drives a Distributed trainer one epoch at a time while keeping
// every rank's state (weight replica, optimizer, workspace) alive between
// calls. It is the engine-reuse primitive the session API builds on: the
// setup work (feature slicing, workspace allocation) happens once in
// Stepper(), and each Step/StepN afterwards runs only the epoch loop.
//
// A Stepper is not safe for concurrent use; Step and StepN are collective
// over the whole world and must be serialized by the caller.
type Stepper struct {
	d     *Distributed
	ranks []*rankState
	epoch int
	// dirty marks that a collective aborted mid-epoch, leaving the weight
	// replicas possibly divergent across ranks; stepping refuses to continue
	// until SetModel re-synchronizes them.
	dirty bool
}

// Stepper builds the persistent per-rank training state (in parallel, one
// goroutine per hosted rank) and returns the step-wise driver positioned at
// epoch 0. On a multi-process (TCP) world only the hosted rank's slot is
// populated; replicas are identical across ranks, so the local one stands in
// for "the" model everywhere rank 0's used to.
func (d *Distributed) Stepper() *Stepper {
	st := &Stepper{d: d, ranks: make([]*rankState, d.World.P)}
	d.World.Run(func(r *comm.Rank) {
		st.ranks[r.ID] = d.newRankState(r)
	})
	st.d.FinalModel = st.ranks[d.World.LocalRank()].model
	return st
}

// Step runs one training epoch across all ranks and returns its result.
func (st *Stepper) Step() EpochResult {
	return st.StepN(1)[0]
}

// StepN runs n consecutive epochs inside a single collective launch (one
// goroutine per rank for the whole batch) and returns their results. It is
// numerically identical to n Step calls but amortises the launch overhead,
// so batch callers (TrainEpochs, benchmark loops) prefer it. Failures panic
// — the legacy contract; failure-aware callers use StepNCtx.
func (st *Stepper) StepN(n int) []EpochResult {
	results, err := st.StepNCtx(context.Background(), n)
	if err != nil {
		panic(err.Error())
	}
	return results
}

// StepNCtx is StepN with a failure path: a fault in any rank, a panic, or
// ctx cancellation aborts the collective mid-epoch (every rank unblocks) and
// returns the typed error. An aborted epoch leaves the trainer dirty —
// weight replicas may have diverged — so further stepping returns
// ErrInconsistent until SetModel restores a checkpoint; the epoch counter
// does not advance and no partial results are returned.
func (st *Stepper) StepNCtx(ctx context.Context, n int) ([]EpochResult, error) {
	if st.dirty {
		return nil, ErrInconsistent
	}
	var results []EpochResult          // appended by the recorder rank alone, read after the join
	recorder := st.d.World.LocalRank() // loss/acc are identical on every rank
	err := st.d.World.RunCtx(ctx, func(r *comm.Rank) error {
		rs := st.ranks[r.ID]
		for e := 0; e < n; e++ {
			loss, acc := st.d.rankEpoch(r, rs)
			if r.ID == recorder {
				results = append(results, EpochResult{Epoch: st.epoch + e, Loss: loss, TrainAcc: acc})
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

// Epoch returns the number of epochs stepped so far (the next Step's index).
func (st *Stepper) Epoch() int { return st.epoch }

// SetEpoch overrides the epoch counter; used when restoring a checkpoint.
func (st *Stepper) SetEpoch(e int) { st.epoch = e }

// Model returns the local rank's live weight replica (identical on every
// rank). Callers must not mutate it while training continues; Clone first.
func (st *Stepper) Model() *Model { return st.ranks[st.d.World.LocalRank()].model }

// SetModel replaces every rank's weight replica with an independent copy of
// m and resets optimizer state, restoring the trainer to the checkpointed
// parameters. It errors (before touching any rank state) if the model's
// shape does not match the trainer's layer dimensions.
func (st *Stepper) SetModel(m *Model) error {
	local := st.d.World.LocalRank()
	have := st.ranks[local].model
	if len(m.Weights) != len(have.Weights) {
		return fmt.Errorf("gcn: restore %d layers into %d-layer trainer", len(m.Weights), len(have.Weights))
	}
	for l, w := range m.Weights {
		hw := have.Weights[l]
		if w.Rows != hw.Rows || w.Cols != hw.Cols {
			return fmt.Errorf("gcn: restore W%d %dx%d into %dx%d", l+1, w.Rows, w.Cols, hw.Rows, hw.Cols)
		}
	}
	for _, rs := range st.ranks {
		if rs == nil {
			continue // rank hosted by another process (TCP transport)
		}
		rs.model = m.Clone()
		rs.optimizer = rs.newOpt()
	}
	st.d.FinalModel = st.ranks[local].model
	// Every replica is again a byte-identical copy of m with fresh optimizer
	// state: whatever divergence an aborted epoch caused is gone.
	st.dirty = false
	return nil
}

// Dirty reports whether an aborted epoch has left the replicas possibly
// divergent (stepping will refuse until SetModel).
func (st *Stepper) Dirty() bool { return st.dirty }

// TrainEpochs runs full-batch training for the given number of epochs
// across all ranks and returns the per-epoch loss/accuracy trajectory
// (identical on every rank; recorded once). Each rank builds its workspace
// once; the per-epoch loop then runs allocation-free through the *Into
// kernels and pooled collectives. It is a convenience for one-shot runs;
// steppable training goes through Stepper.
func (d *Distributed) TrainEpochs(epochs int) []EpochResult {
	st := d.Stepper()
	results := st.StepN(epochs)
	d.FinalModel = st.Model()
	return results
}

// ApplyPerm relabels a dataset into a partitioner's vertex order: features
// move to permuted rows, labels follow, and index sets are mapped. It is
// the "rearranging the rows of H to match the new vertex ids" preprocessing
// step of Section 6.2.
func ApplyPerm(perm []int, x *dense.Matrix, labels []int, idxSets ...[]int) (*dense.Matrix, []int, [][]int) {
	px := x.PermuteRows(perm)
	plabels := make([]int, len(labels))
	for v, l := range labels {
		plabels[perm[v]] = l
	}
	psets := make([][]int, len(idxSets))
	for s, set := range idxSets {
		ps := make([]int, len(set))
		for i, v := range set {
			ps[i] = perm[v]
		}
		psets[s] = ps
	}
	return px, plabels, psets
}
