package sagnn

import (
	"context"
	"fmt"
	"math/rand"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/graph"
	"sagnn/internal/machine"
	"sagnn/internal/minibatch"
	"sagnn/internal/opt"
)

// DatasetFromEdges builds a Dataset from a user-supplied undirected edge
// list, per-vertex feature vectors, and labels. The graph is symmetrized;
// train/val/test splits are drawn with the given fractions.
func DatasetFromEdges(name string, n int, edges [][2]int, features [][]float64,
	labels []int, classes int, trainFrac, valFrac float64, seed int64) (*Dataset, error) {
	if len(features) != n || len(labels) != n {
		return nil, fmt.Errorf("sagnn: %d features / %d labels for %d vertices", len(features), len(labels), n)
	}
	f := 0
	if n > 0 {
		f = len(features[0])
	}
	x := dense.New(n, f)
	for i, row := range features {
		if len(row) != f {
			return nil, fmt.Errorf("sagnn: feature row %d has %d values, want %d", i, len(row), f)
		}
		copy(x.Row(i), row)
	}
	for i, l := range labels {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("sagnn: label %d of vertex %d outside [0,%d)", l, i, classes)
		}
	}
	g := graph.FromEdges(n, edges).Symmetrize()
	rng := rand.New(rand.NewSource(seed))
	train, val, test := gen.Splits(rng, n, trainFrac, valFrac)
	return &Dataset{
		Name: name, G: g, Features: x, Labels: labels, Classes: classes,
		Train: train, Val: val, Test: test,
	}, nil
}

// GenerateCommunityDataset synthesises a stochastic-block-model graph of k
// communities with noisy label-correlated features — a ready-made node
// classification task for the example applications (fraud rings, social
// communities). degIn/degOut control intra/inter-community degree; noise
// controls feature difficulty.
func GenerateCommunityDataset(name string, n, k, degIn, degOut, featureDim int,
	noise float64, seed int64) *Dataset {
	g, communities := gen.SBM(n, k, degIn, degOut, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	x := gen.Features(rng, communities, k, featureDim, noise)
	train, val, test := gen.Splits(rng, n, 0.1, 0.1)
	return &Dataset{
		Name: name, G: g, Features: x, Labels: communities, Classes: k,
		Train: train, Val: val, Test: test,
	}
}

// SerialResult reports a single-process reference training run.
type SerialResult struct {
	// History is the per-epoch loss/accuracy trajectory.
	History []EpochResult
	// Model is the trained weight set, ready for Predict or serialization.
	Model *Model
	// ValAcc / TestAcc evaluate the trained model on the held-out splits.
	ValAcc  float64
	TestAcc float64
}

// RunSerial trains the single-process reference model — the ground truth
// the distributed sessions are tested against — under the same validated
// ModelConfig conventions as the session API.
func RunSerial(ds *Dataset, epochs int, cfg ModelConfig) (res *SerialResult, err error) {
	if err := validateDataset(ds); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if epochs < 1 {
		return nil, fmt.Errorf("sagnn: %d epochs", epochs)
	}
	defer recoverToError(&err)
	dims := gcn.LayerDims(ds.FeatureDim(), cfg.Hidden, ds.Classes, cfg.Layers)
	model := gcn.NewModelVariant(cfg.Seed, dims, cfg.variant())
	s := gcn.NewSerial(ds.NormalizedAdjacency(), ds.Features, ds.Labels, ds.Train, model, cfg.LR)
	s.Variant = cfg.variant()
	history, err := s.TrainEpochs(epochs)
	if err != nil {
		return nil, err
	}
	res = &SerialResult{History: history, Model: &Model{m: model.Clone(), sage: cfg.SAGE}}
	accs := res.Model.accuracies(ds, ds.Val, ds.Test)
	res.ValAcc, res.TestAcc = accs[0], accs[1]
	return res, nil
}

// MiniBatchResult reports a sampled-training run (see RunMiniBatch).
type MiniBatchResult struct {
	// EpochLoss is each epoch's per-example mean training loss.
	EpochLoss []float64
	TestAcc   float64
	// Model is the trained weight set.
	Model *Model
}

// RunMiniBatch trains with GraphSAGE-style neighbor sampling — the
// mini-batch mode the paper's introduction contrasts with full-batch
// training — under the same validated configuration conventions as the
// session API. It is Session.RunSampled's epoch on a one-process world:
// sampling takes sc as DistOpts.Sampling does (same defaults, negative
// fields an error), optimisation uses Adam at cfg.LR, and the test accuracy
// is the trained Model's full-batch forward.
func RunMiniBatch(ds *Dataset, epochs int, cfg ModelConfig, sc SamplingConfig) (res *MiniBatchResult, err error) {
	if err := validateDataset(ds); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if cfg.SAGE {
		return nil, fmt.Errorf("sagnn: mini-batch training supports only the GCN layer variant")
	}
	if epochs < 1 {
		return nil, fmt.Errorf("sagnn: %d epochs", epochs)
	}
	defer recoverToError(&err)
	sc = sc.withDefaults(cfg.Seed)
	dims := gcn.LayerDims(ds.FeatureDim(), cfg.Hidden, ds.Classes, cfg.Layers)
	st := minibatch.NewDist(comm.NewWorld(1, machine.Perlmutter()), distmm.UniformLayout(ds.G.NumVertices(), 1),
		ds.NormalizedAdjacency(), ds.Features, ds.Labels, ds.Train, dims, cfg.Seed,
		func() opt.Optimizer { return opt.NewAdam(cfg.LR) },
		minibatch.DistConfig{Fanout: sc.Fanout, BatchSize: sc.BatchSize, Seed: sc.Seed}).Stepper()
	history, err := st.StepNCtx(context.Background(), epochs)
	if err != nil {
		return nil, err
	}
	res = &MiniBatchResult{Model: &Model{m: st.Model().Clone()}}
	for _, e := range history {
		res.EpochLoss = append(res.EpochLoss, e.Loss)
	}
	res.TestAcc = res.Model.accuracies(ds, ds.Test)[0]
	return res, nil
}
