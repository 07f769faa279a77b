package sagnn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/gcn"
	"sagnn/internal/machine"
	"sagnn/internal/minibatch"
	"sagnn/internal/retry"
)

// EpochResult reports one training epoch (loss and train accuracy).
type EpochResult = gcn.EpochResult

// ErrStopTraining, returned from an epoch callback, stops Session.Run
// cleanly after the current epoch: Run returns the partial result and a nil
// error. Any other callback error aborts Run and is returned to the caller.
var ErrStopTraining = errors.New("sagnn: stop training")

// ModelConfig describes the GCN a session trains. The zero value selects
// the paper's configuration (3 layers, 16 hidden units, SGD at 0.05).
type ModelConfig struct {
	Hidden int     // hidden units per layer (default 16)
	Layers int     // GCN layers (default 3)
	LR     float64 // SGD learning rate (default 0.05)
	Seed   int64   // weight-init seed (default 1)
}

func (c ModelConfig) withDefaults() ModelConfig {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c ModelConfig) validate() error {
	switch {
	case c.Hidden < 1:
		return fmt.Errorf("sagnn: %d hidden units", c.Hidden)
	case c.Layers < 1:
		return fmt.Errorf("sagnn: %d layers", c.Layers)
	case c.LR <= 0:
		return fmt.Errorf("sagnn: learning rate %v", c.LR)
	}
	return nil
}

// SessionOption customises NewSession.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	callbacks     []func(EpochResult) error
	snapshotEvery int
	maxRetries    int
	backoff       time.Duration
}

// WithEpochCallback registers fn to run after every epoch of Session.Run
// (logging, metrics, early stopping). Returning ErrStopTraining ends the
// run cleanly; any other error aborts it and is returned from Run. Multiple
// callbacks run in registration order.
func WithEpochCallback(fn func(EpochResult) error) SessionOption {
	return func(o *sessionOptions) { o.callbacks = append(o.callbacks, fn) }
}

// WithAutoSnapshot makes Session.Run capture an in-memory checkpoint every
// everyN successfully completed epochs (everyN ≤ 0 means after every
// launch). The snapshot bounds how much work a fault can destroy: recovery
// and cancellation roll back to the latest one. Snapshots are model-sized
// (the weights), so the overhead is one weight-replica clone per interval —
// measured in EXPERIMENTS.md.
func WithAutoSnapshot(everyN int) SessionOption {
	return func(o *sessionOptions) { o.snapshotEvery = everyN }
}

// WithRecovery makes Session.Run survive transient communication faults: on
// a failed collective it rolls every rank back to the last auto-snapshot,
// waits backoff (doubling per consecutive retry), and replays. Up to
// maxRetries consecutive failed attempts are absorbed; the counter resets on
// progress. Replay is bit-identical to an uninterrupted run once the fault
// clears, because restoring a snapshot re-synchronizes every weight replica
// and the full-batch epoch is deterministic. A lost TCP peer
// (comm.ErrPeerDisconnected) is not transient and is never retried.
func WithRecovery(maxRetries int, backoff time.Duration) SessionOption {
	return func(o *sessionOptions) {
		o.maxRetries = maxRetries
		o.backoff = backoff
	}
}

// Session is steppable distributed training of one model over a DistGraph.
// Creating a session builds each rank's weight replica and optimizer once
// — one gcn.Stepper; every Step afterwards runs exactly one
// full-batch epoch over those replicas, and RunSampled steps the same
// replicas through sampled epochs. The full-batch epoch reads the graph's
// Â·X (DistGraph): the first full-batch step on a graph computes it, in a
// launch of its own ahead of the epoch, and no later step of any session
// does. Everything above the stepper — the run loop, recovery, snapshots,
// ledger attribution — is mode-agnostic.
// Multiple sessions can share one DistGraph — the partition and the
// sparsity-aware communication schedule are built once and reused — but
// their Step/Run calls are serialized (the engine's per-rank workspaces are
// shared), so a Session must not be stepped from multiple goroutines.
type Session struct {
	dg      *DistGraph
	cfg     ModelConfig
	opts    sessionOptions
	stepper *gcn.Stepper
	// sampledBody is the lazily built neighbor-sampling epoch body that
	// RunSampled swaps into the stepper for the duration of its run, with
	// sampledSetup, the Setup it runs with.
	sampledBody  gcn.EpochBody
	sampledSetup func(context.Context) error
	history      []EpochResult

	// spentEpochs / spentSetup accumulate this session's own modeled time
	// and traffic, one delta per step measured under the cluster's step lock
	// — so interleaved runs of other sessions on the shared cluster never
	// leak into this session's figures. Epochs and the set-up launch a step
	// may have to run first (the graph's Â·X) go to separate accumulators,
	// so per-epoch figures hold nothing but epochs. Snapshots are immutable;
	// Run marks a position by keeping the value.
	spentEpochs, spentSetup spent

	// last is the Model of the latest run's result, which holds the
	// session's held-out evaluator until the next result takes it over.
	last *Model
}

// spent is a position in (or a stretch of) a world's accounting: modeled
// seconds per rank and phase, and traffic per rank.
type spent struct {
	ledger *machine.Snapshot
	vol    *comm.VolumeSnapshot
}

func spentBy(w *comm.World) spent { return spent{w.Ledger.Snapshot(), w.Stats().Snapshot()} }

func (a spent) add(b spent) spent { return spent{a.ledger.Add(b.ledger), a.vol.Add(b.vol)} }
func (a spent) sub(b spent) spent { return spent{a.ledger.Sub(b.ledger), a.vol.Sub(b.vol)} }

// NewSession creates a training session for the given model configuration
// on the distributed graph. The graph's engine and partition are reused
// as-is; only per-session state (weights, optimizer) is built, and step
// workspaces grow on first use.
func (g *DistGraph) NewSession(cfg ModelConfig, opts ...SessionOption) (s *Session, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	defer recoverToError(&err)
	trainer := &gcn.Distributed{World: g.cluster.world, Engine: g.engine, Labels: g.labels, Train: g.train,
		Dims: gcn.LayerDims(g.input.X.Cols, cfg.Hidden, g.ds.Classes, cfg.Layers), LR: cfg.LR, Seed: cfg.Seed, Input: g.input}
	g.cluster.mu.Lock()
	stepper := trainer.Stepper()
	g.cluster.mu.Unlock()
	return &Session{dg: g, cfg: cfg, opts: o, stepper: stepper}, nil
}

// recoverToError converts an internal invariant panic into an error on the
// public API boundary.
func recoverToError(err *error) {
	if e := recover(); e != nil {
		*err = fmt.Errorf("sagnn: %v", e)
	}
}

// Step runs exactly one training epoch across all ranks and returns its
// result. Steps of sessions sharing a cluster are serialized internally,
// and the epoch's modeled time and traffic are attributed to this session
// while the lock is held.
func (s *Session) Step() (EpochResult, error) {
	batch, err := s.stepN(1)
	if err != nil {
		return EpochResult{}, err
	}
	return batch[0], nil
}

// stepN runs n consecutive epochs inside one collective launch under the
// cluster's step lock, attributing their modeled time and traffic to this
// session.
func (s *Session) stepN(n int) ([]EpochResult, error) {
	return s.stepCtx(context.Background(), n)
}

// stepCtx is stepN with cancellation: ctx cancellation (or any fault)
// aborts the in-flight collective mid-epoch instead of waiting for the
// launch to finish. Charges accrued before the abort are still attributed —
// the modeled work happened — but no partial epoch results are recorded,
// and the underlying trainer is left dirty until a checkpoint restore.
//
// Set-up the body still owes runs first, in its own launch and on its own
// account, so the epochs are charged exactly what every later epoch is. An
// abort inside it has touched no weight: the trainer stays clean, nothing of
// the set-up is kept, and the next step starts it over.
func (s *Session) stepCtx(ctx context.Context, n int) (batch []EpochResult, err error) {
	defer recoverToError(&err)
	s.dg.cluster.mu.Lock()
	defer s.dg.cluster.mu.Unlock()
	world := s.dg.cluster.world
	start := spentBy(world)
	setupErr := s.stepper.Setup(ctx)
	ready := spentBy(world)
	s.spentSetup = s.spentSetup.add(ready.sub(start))
	if setupErr != nil {
		return nil, setupErr
	}
	batch, stepErr := s.stepper.StepNCtx(ctx, n)
	s.spentEpochs = s.spentEpochs.add(spentBy(world).sub(ready))
	if stepErr != nil {
		return nil, stepErr
	}
	s.history = append(s.history, batch...)
	return batch, nil
}

// Epoch returns the number of epochs trained so far (the next Step's index).
func (s *Session) Epoch() int { return s.stepper.Epoch() }

// History returns a copy of every epoch result recorded so far.
func (s *Session) History() []EpochResult {
	return append([]EpochResult(nil), s.history...)
}

// Model returns a snapshot of the current trained weights. The copy is
// detached: further training does not mutate it.
func (s *Session) Model() *Model {
	s.dg.cluster.mu.Lock()
	defer s.dg.cluster.mu.Unlock()
	return &Model{m: s.stepper.Model().Clone()}
}

// Run trains for up to the given number of epochs, invoking any registered
// epoch callbacks. Cancelling ctx aborts even an in-flight epoch — every
// rank unblocks mid-collective — and Run returns the completed prefix with
// err = ctx.Err(). With WithRecovery, transient communication faults roll
// back to the last auto-snapshot (WithAutoSnapshot sets the cadence) and
// replay after an exponential backoff; the replayed losses are bit-identical
// to an uninterrupted run once the fault clears. Callbacks may re-observe
// replayed epochs after a rollback. ErrStopTraining from a callback ends the
// run cleanly (err = nil). A dataset without training vertices is
// ErrEmptyTrainSet.
func (s *Session) Run(ctx context.Context, epochs int) (*TrainResult, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("sagnn: %d epochs", epochs)
	}
	epochs0, setup0 := s.spentEpochs, s.spentSetup
	var runHist []EpochResult // grows with what is trained; epochs may mean "until stopped"
	var runErr error

	recovery := s.opts.maxRetries > 0
	snapEvery := s.opts.snapshotEvery
	// A rollback point exists whenever something can abort mid-epoch: an
	// injected fault under recovery, or a cancellable context. It lets the
	// session rewind to the last completed launch instead of being stuck
	// dirty (gcn.ErrInconsistent) after an abort.
	var lastSnap *Checkpoint
	if recovery || snapEvery > 0 || ctx.Done() != nil {
		lastSnap = s.Snapshot()
	}
	sinceSnap := 0 // epochs completed since lastSnap
	retries := 0

	// rollback restores the last snapshot and drops the replayed-over tail
	// of this run's history (Restore trims the session history the same way).
	rollback := func() error {
		if lastSnap == nil {
			return nil
		}
		if err := s.Restore(lastSnap); err != nil {
			return err
		}
		trimmed := runHist[:0]
		for _, r := range runHist {
			if r.Epoch < lastSnap.Epoch() {
				trimmed = append(trimmed, r)
			}
		}
		runHist = trimmed
		sinceSnap = 0
		return nil
	}

loop:
	for len(runHist) < epochs {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		// With no per-epoch callbacks, batch the remaining epochs through a
		// single collective launch (one goroutine set, one accounting
		// snapshot pair). A cancellable context or enabled recovery caps the
		// batch so cancellation/rollback granularity stays bounded; callbacks
		// force epoch-at-a-time stepping; an auto-snapshot cadence aligns
		// launches to its boundaries.
		n := 1
		if len(s.opts.callbacks) == 0 {
			n = epochs - len(runHist)
			if (ctx.Done() != nil || recovery) && n > 16 {
				n = 16
			}
		}
		if snapEvery > 0 {
			if room := snapEvery - sinceSnap; n > room {
				n = room
			}
		}
		batch, err := s.stepCtx(ctx, n)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// Cancelled mid-epoch: rewind to the last completed launch so
				// the session stays usable, and report the cancellation.
				if rbErr := rollback(); rbErr != nil {
					runErr = rbErr
					break
				}
				runErr = cerr
				break
			}
			// A lost peer is not transient: the wire has no rejoin, and every
			// later launch fails with the same error.
			if recovery && retries < s.opts.maxRetries && lastSnap != nil && !errors.Is(err, comm.ErrPeerDisconnected) {
				retries++
				// Cancellation during the backoff wait is observed at the
				// top of the next launch, so the early return is discarded.
				retry.Sleep(ctx, s.opts.backoff, retries)
				if rbErr := rollback(); rbErr != nil {
					runErr = rbErr
					break
				}
				continue
			}
			// Unrecovered fault: still rewind if possible (a later manual
			// retry can resume), then surface the typed error.
			if rbErr := rollback(); rbErr != nil {
				runErr = rbErr
				break
			}
			runErr = err
			break
		}
		retries = 0
		runHist = append(runHist, batch...)
		sinceSnap += len(batch)
		if lastSnap != nil && (snapEvery <= 0 || sinceSnap >= snapEvery) {
			lastSnap = s.Snapshot()
			sinceSnap = 0
		}
		for _, res := range batch {
			for _, cb := range s.opts.callbacks {
				if err := cb(res); err != nil {
					if !errors.Is(err, ErrStopTraining) {
						runErr = err
					}
					break loop
				}
			}
		}
	}
	return s.result(runHist, epochs0, setup0), runErr
}

// RunSampled trains for up to the given number of epochs with neighbor-
// sampled mini-batches instead of full-batch epochs: each rank draws
// GraphSAGE-style fixed-fanout batches over its own training vertices, and
// every batch's boundary-feature halo exchange is compiled into a Plan
// instruction stream — so sampled epochs inherit the full-batch machinery
// unchanged: byte-exact volume prediction, static plan verification,
// typed-error aborts, and both transports. Sampling
// parameters come from DistOpts.Sampling (defaults if nil). Sampling is
// seeded per (rank, epoch, step), so losses are bit-identical across
// transports and across recovery retries; callbacks, cancellation,
// WithRecovery, and WithAutoSnapshot behave exactly as in Run — RunSampled
// is Run with the session's stepper running the sampled epoch body. Sampled
// and full-batch runs may interleave on one session: both step the same
// per-rank replicas (weights, optimizer), epoch counter and
// history, so optimizer state carries across a mode switch and a rollback
// restores the state either mode resumes from. An empty training set is
// ErrEmptyTrainSet.
func (s *Session) RunSampled(ctx context.Context, epochs int) (res *TrainResult, err error) {
	if epochs < 1 {
		return nil, fmt.Errorf("sagnn: %d epochs", epochs)
	}
	defer recoverToError(&err)
	if s.sampledBody == nil {
		g := s.dg
		if g.layout.Blocks() != g.cluster.p {
			return nil, fmt.Errorf("sagnn: sampled training needs one layout block per rank; %s distributes %d blocks over %d ranks",
				g.Algorithm(), g.layout.Blocks(), g.cluster.p)
		}
		sc := g.sampling.withDefaults(s.cfg.Seed)
		x := g.sampledFeatures()
		dims := gcn.LayerDims(x.Cols, s.cfg.Hidden, g.ds.Classes, s.cfg.Layers)
		s.sampledBody, s.sampledSetup = minibatch.NewDist(g.cluster.world, g.layout, g.aHat, x, g.labels, g.train, dims, s.cfg.Seed, nil,
			minibatch.DistConfig{Fanout: sc.Fanout, BatchSize: sc.BatchSize, Seed: sc.Seed}).Body()
	}
	// The ordinary run loop (recovery, snapshots, ledger attribution) over
	// the sampled body: same replicas, epoch counter and history.
	// A sampled epoch computes its own first layer per batch, so it owes no
	// set-up: a session that only ever samples never pays for Â·X. Its Setup
	// moves no data; it only settles the resident stores after an aborted
	// launch.
	full, setup := s.stepper.Body, s.stepper.Setup
	s.stepper.Body, s.stepper.Setup = s.sampledBody, s.sampledSetup
	defer func() { s.stepper.Body, s.stepper.Setup = full, setup }()
	return s.Run(ctx, epochs)
}

// result assembles a TrainResult for one run from its history and this
// session's own accumulated charges since the run began (epochs0/setup0 are
// the accumulator positions at run start). Its Model takes over the
// inference evaluator of the session's previous result (Model.handOver),
// so a session's results hold one evaluator between them, the newest
// result's — warm for the held-out evaluation here and for whoever
// predicts with it next — and each run allocates none.
func (s *Session) result(hist []EpochResult, epochs0, setup0 spent) *TrainResult {
	res := &TrainResult{
		EpochPrice: EpochPrice{PartitionQuality: s.dg.quality},
		History:    hist,
		Model:      s.Model(),
	}
	if s.last != nil {
		s.last.handOver(res.Model)
	}
	s.last = res.Model
	const mb = 1e6
	if len(hist) > 0 {
		last := hist[len(hist)-1]
		res.FinalLoss, res.FinalTrainAcc = last.Loss, last.TrainAcc
		epochs := float64(len(hist))
		run := s.spentEpochs.sub(epochs0)
		per := run.ledger.Scale(1 / epochs)
		res.EpochSeconds = per.Total()
		res.Breakdown = per.Breakdown()
		res.MaxSentMB = float64(run.vol.MaxSent()) / epochs / mb
		res.AvgSentMB = run.vol.AvgSent() / epochs / mb
		res.TotalRecvMB = float64(run.vol.TotalRecv()) / epochs / mb
	}
	if s.spentSetup.ledger != nil { // nil: the run never got as far as a step
		setup := s.spentSetup.sub(setup0)
		res.SetupSeconds = setup.ledger.Total()
		res.SetupMaxSentMB = float64(setup.vol.MaxSent()) / mb
	}
	// The held-out splits are the trained model's full-batch forward over the
	// original dataset, whose Â·X every model and run on it shares.
	ds := s.dg.ds
	accs := res.Model.accuracies(ds, ds.Val, ds.Test)
	res.ValAcc, res.TestAcc = accs[0], accs[1]
	return res
}

// Checkpoint is a restorable snapshot of a session's training state: the
// epoch counter and a detached copy of the weights. Checkpoints serialize
// with MarshalBinary / LoadCheckpoint.
type Checkpoint struct {
	epoch int
	model *gcn.Model
}

// Snapshot captures the session's current weights and epoch counter.
func (s *Session) Snapshot() *Checkpoint {
	s.dg.cluster.mu.Lock()
	defer s.dg.cluster.mu.Unlock()
	return &Checkpoint{epoch: s.stepper.Epoch(), model: s.stepper.Model().Clone()}
}

// Restore rewinds the session to a checkpoint: every rank's weight replica
// is reset to the checkpointed parameters, optimizer state is re-created,
// and the epoch counter is restored. The checkpoint's model shape must match
// the session's configuration.
func (s *Session) Restore(ck *Checkpoint) error {
	if ck == nil || ck.model == nil {
		return fmt.Errorf("sagnn: nil checkpoint")
	}
	s.dg.cluster.mu.Lock()
	defer s.dg.cluster.mu.Unlock()
	if err := s.stepper.SetModel(ck.model); err != nil {
		return fmt.Errorf("sagnn: checkpoint does not fit session: %w", err)
	}
	s.stepper.SetEpoch(ck.epoch)
	// History keeps only results observed for epochs before the checkpoint:
	// rewinding drops the replayed-over tail, and fast-forwarding (restoring
	// a later checkpoint from disk) drops nothing it shouldn't — epochs this
	// session never observed simply stay absent.
	trimmed := s.history[:0]
	for _, r := range s.history {
		if r.Epoch < ck.epoch {
			trimmed = append(trimmed, r)
		}
	}
	s.history = trimmed
	return nil
}

// Epoch returns the epoch count at which the checkpoint was taken.
func (c *Checkpoint) Epoch() int { return c.epoch }

// Model returns a detached copy of the checkpointed weights.
func (c *Checkpoint) Model() *Model {
	return &Model{m: c.model.Clone()}
}

// Checkpoint binary format (little-endian): magic "SGCK", version, epoch
// (int64), then the model exactly as Model.MarshalBinary writes it (variant
// byte, model record).
const (
	checkpointMagic   = 0x5347434b // "SGCK"
	checkpointVersion = 1
)

// MarshalBinary serialises the checkpoint.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	if c.model == nil {
		return nil, fmt.Errorf("sagnn: empty checkpoint")
	}
	var buf bytes.Buffer
	var scratch [8]byte
	le := binary.LittleEndian
	le.PutUint32(scratch[:4], checkpointMagic)
	buf.Write(scratch[:4])
	le.PutUint32(scratch[:4], checkpointVersion)
	buf.Write(scratch[:4])
	le.PutUint64(scratch[:], uint64(c.epoch))
	buf.Write(scratch[:])
	mb, err := (&Model{m: c.model}).MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf.Write(mb)
	return buf.Bytes(), nil
}

// LoadCheckpoint parses a checkpoint serialised with MarshalBinary.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	le := binary.LittleEndian
	if len(data) < 17 {
		return nil, fmt.Errorf("sagnn: truncated checkpoint (%d bytes)", len(data))
	}
	if magic := le.Uint32(data[:4]); magic != checkpointMagic {
		return nil, fmt.Errorf("sagnn: bad checkpoint magic %#x", magic)
	}
	if ver := le.Uint32(data[4:8]); ver != checkpointVersion {
		return nil, fmt.Errorf("sagnn: unsupported checkpoint version %d", ver)
	}
	epoch := int(int64(le.Uint64(data[8:16])))
	if epoch < 0 {
		return nil, fmt.Errorf("sagnn: negative checkpoint epoch %d", epoch)
	}
	m, err := LoadModel(data[16:])
	if err != nil {
		return nil, err
	}
	return &Checkpoint{epoch: epoch, model: m.m}, nil
}

// LoadServableModel parses either a serialized Model (MarshalBinary) or a
// serialized Checkpoint and returns the contained model, plus the
// checkpoint's epoch (-1 for a bare model). This is the one entry point a
// serving hot-swap endpoint needs: operators can POST whichever artifact
// their training pipeline produced. The two formats are distinguished by
// the checkpoint magic, which cannot collide with a model record's leading
// variant byte.
func LoadServableModel(data []byte) (*Model, int, error) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data[:4]) == checkpointMagic {
		ck, err := LoadCheckpoint(data)
		if err != nil {
			return nil, 0, err
		}
		return ck.Model(), ck.Epoch(), nil
	}
	m, err := LoadModel(data)
	if err != nil {
		return nil, 0, err
	}
	return m, -1, nil
}
