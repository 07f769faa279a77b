package gcn

import (
	"context"
	"errors"
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/opt"
)

// ErrInconsistent reports a step on a Stepper whose last collective aborted
// mid-epoch: some ranks may have applied the epoch's weight update and others
// not, so the replicas can no longer be assumed bit-identical. Restoring a
// model checkpoint (SetModel) re-synchronizes every replica and clears the
// condition.
var ErrInconsistent = errors.New("gcn: training state inconsistent after an aborted epoch; restore a model checkpoint before stepping")

// Replica is one hosted rank's training state: its weight replica and
// optimizer, the group its gradients are reduced over, and the step
// workspace. The features are the epoch body's. Replicas stay
// bit-consistent across ranks because gradients are all-reduced before
// every update.
type Replica struct {
	Model *Model
	// NewOpt constructs the optimizer; NewStepper and SetModel call it, so
	// each replica owns its optimizer state.
	NewOpt func() opt.Optimizer
	Opt    opt.Optimizer
	Group  *comm.Group
	WS     Workspace
}

// EpochBody runs one training epoch on one rank over its replica and
// returns the epoch's global loss sum and correct count (identical on every
// rank). Full-batch training is one step per epoch; sampled training is the
// epoch's batches.
type EpochBody func(r *comm.Rank, rep *Replica, epoch int) (lossSum, correct float64, err error)

// Stepper owns the replicas of one model over a world and drives them one
// epoch at a time, keeping every rank's state alive between calls so
// training can pause, checkpoint and resume without repeating set-up. It
// runs whichever epoch body it holds: a session that trains both full-batch
// and sampled swaps Body and keeps one replica set, one epoch counter and
// one dirty flag.
//
// A Stepper is not safe for concurrent use; StepNCtx is collective over the
// whole world and must be serialized by the caller.
type Stepper struct {
	// Body is the epoch the next StepNCtx runs on every rank.
	Body EpochBody
	// Setup is the collective work Body needs done once before its first
	// epoch, in launches of its own — the full-batch body's
	// InputProduct.Ensure; a sampled body's needs no launch and only settles
	// its resident stores after an aborted launch — and a prompt no-op once
	// done. StepNCtx calls it ahead of every launch; a caller that accounts
	// set-up apart from epochs calls it first. A failure has touched no
	// replica: the stepper stays clean and the set-up owed. It travels with
	// Body: whoever swaps one swaps both.
	Setup func(ctx context.Context) error

	world    *comm.World
	examples int // global training examples per epoch
	ranks    []*Replica
	epoch    int
	// dirty marks that a collective aborted mid-epoch, leaving the weight
	// replicas possibly divergent across ranks; stepping refuses to continue
	// until SetModel re-synchronizes them.
	dirty bool
}

// NewStepper builds one replica per hosted rank (in parallel, one goroutine
// each; on a multi-process world only the hosted rank's slot is populated)
// and returns the driver positioned at epoch 0, holding body and the set-up
// it needs. examples is the global number of training examples an epoch
// averages over.
func NewStepper(w *comm.World, examples int, setup func(context.Context) error, body EpochBody, build func(r *comm.Rank) *Replica) *Stepper {
	st := &Stepper{Body: body, Setup: setup, world: w, examples: examples, ranks: make([]*Replica, w.P)}
	w.Run(func(r *comm.Rank) {
		rep := build(r)
		rep.Opt = rep.NewOpt()
		st.ranks[r.ID] = rep
	})
	return st
}

// StepNCtx runs n consecutive epochs inside a single collective launch (one
// goroutine per rank for the whole batch) and returns their results. A fault
// in any rank, a panic, or ctx cancellation aborts the collective mid-epoch
// (every rank unblocks) and returns the typed error. An aborted epoch leaves
// the stepper dirty — weight replicas may have diverged — so further
// stepping returns ErrInconsistent until SetModel restores a checkpoint; the
// epoch counter does not advance and no partial results are returned.
func (st *Stepper) StepNCtx(ctx context.Context, n int) ([]EpochResult, error) {
	if st.dirty {
		return nil, ErrInconsistent
	}
	if st.examples == 0 {
		return nil, ErrEmptyTrainSet
	}
	if err := st.Setup(ctx); err != nil {
		return nil, err
	}
	var results []EpochResult        // appended by the recorder rank alone, read after the join
	recorder := st.world.LocalRank() // loss/acc are identical on every rank
	err := st.world.RunCtx(ctx, func(r *comm.Rank) error {
		for e := st.epoch; e < st.epoch+n; e++ {
			lossSum, correct, err := st.Body(r, st.ranks[r.ID], e)
			if err != nil {
				return err
			}
			if r.ID == recorder {
				results = append(results, EpochResult{
					Epoch:    e,
					Loss:     lossSum / float64(st.examples),
					TrainAcc: correct / float64(st.examples),
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

// Epoch returns the number of epochs stepped so far (the next step's index).
func (st *Stepper) Epoch() int { return st.epoch }

// SetEpoch overrides the epoch counter; used when restoring a checkpoint.
// Sampled bodies seed by absolute epoch index, so restoring the counter
// restores the exact batch sequence.
func (st *Stepper) SetEpoch(e int) { st.epoch = e }

// Model returns the local rank's live weight replica (identical on every
// rank). Callers must not mutate it while training continues; Clone first.
func (st *Stepper) Model() *Model { return st.ranks[st.world.LocalRank()].Model }

// SetModel replaces every rank's weight replica with an independent copy of
// m and resets optimizer state, restoring the trainer to the checkpointed
// parameters. It errors (before touching any rank state) if the model's
// shape does not match the replicas'.
func (st *Stepper) SetModel(m *Model) error {
	have := st.Model()
	if len(m.Weights) != len(have.Weights) {
		return fmt.Errorf("gcn: restore %d layers into %d-layer trainer", len(m.Weights), len(have.Weights))
	}
	for l, w := range m.Weights {
		hw := have.Weights[l]
		if w.Rows != hw.Rows || w.Cols != hw.Cols {
			return fmt.Errorf("gcn: restore W%d %dx%d into %dx%d", l+1, w.Rows, w.Cols, hw.Rows, hw.Cols)
		}
	}
	for _, rep := range st.ranks {
		if rep == nil {
			continue // rank hosted by another process (TCP transport)
		}
		rep.Model = m.Clone()
		rep.Opt = rep.NewOpt()
	}
	// Every replica is again a byte-identical copy of m with fresh optimizer
	// state: whatever divergence an aborted epoch caused is gone.
	st.dirty = false
	return nil
}
