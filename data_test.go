package sagnn

import (
	"math"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/minibatch"
	"sagnn/internal/opt"
)

func TestDatasetFromEdges(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	features := [][]float64{{1, 0}, {0, 1}, {1, 1}, {0, 0}}
	labels := []int{0, 1, 0, 1}
	ds, err := DatasetFromEdges("ring", 4, edges, features, labels, 2, 0.5, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.G.NumVertices() != 4 || !ds.G.IsSymmetric() {
		t.Fatal("graph wrong")
	}
	if ds.Features.At(2, 1) != 1 {
		t.Fatal("features wrong")
	}
	if len(ds.Train) != 2 || len(ds.Val) != 1 || len(ds.Test) != 1 {
		t.Fatalf("splits %d/%d/%d", len(ds.Train), len(ds.Val), len(ds.Test))
	}
}

func TestDatasetFromEdgesErrors(t *testing.T) {
	if _, err := DatasetFromEdges("x", 2, nil, [][]float64{{1}}, []int{0, 0}, 1, 0.5, 0, 1); err == nil {
		t.Fatal("expected feature-count error")
	}
	if _, err := DatasetFromEdges("x", 2, nil, [][]float64{{1}, {2, 3}}, []int{0, 0}, 1, 0.5, 0, 1); err == nil {
		t.Fatal("expected ragged-feature error")
	}
	if _, err := DatasetFromEdges("x", 2, nil, [][]float64{{1}, {2}}, []int{0, 5}, 2, 0.5, 0, 1); err == nil {
		t.Fatal("expected label-range error")
	}
	feats, labels := [][]float64{{1}, {2}}, []int{0, 0}
	for name, c := range map[string]struct {
		edges        [][2]int
		trainF, valF float64
	}{
		"edge endpoint out of range": {[][2]int{{0, 5}}, 0.5, 0},
		"negative endpoint":          {[][2]int{{-1, 0}}, 0.5, 0},
		"train fraction above 1":     {nil, 1.5, 0},
		"negative val fraction":      {nil, 0.5, -0.5},
		"fractions sum past 1":       {nil, 0.6, 0.6},
	} {
		if _, err := DatasetFromEdges("x", 2, c.edges, feats, labels, 1, c.trainF, c.valF, 1); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestLoadDatasetErrors: a scale divisor below 1 is an error, not the
// full-size preset.
func TestLoadDatasetErrors(t *testing.T) {
	for name, scaleDiv := range map[string]int{"zero scale div": 0, "negative scale div": -4} {
		if _, err := LoadDataset(ProteinSim, 1, scaleDiv); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestGenerateCommunityDataset(t *testing.T) {
	ds := GenerateCommunityDataset("comms", 400, 4, 10, 2, 16, 0.4, 9)
	if ds.G.NumVertices() != 400 || ds.Classes != 4 {
		t.Fatal("shape wrong")
	}
	// trainable: serial accuracy on test split should beat chance (0.25)
	res, err := RunSerial(ds, 40, ModelConfig{Hidden: 16, Layers: 2, LR: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, res.Model, ds, ds.Test)[0]; acc < 0.5 {
		t.Fatalf("community dataset not learnable: acc %v", acc)
	}
}

func TestTrainReportsHeldOutAccuracy(t *testing.T) {
	ds := GenerateCommunityDataset("comms", 256, 4, 10, 2, 16, 0.3, 11)
	res, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(11)}, ModelConfig{LR: 0.3, Seed: 5}, 40)
	if accs := accuracy(t, res.Model, ds, ds.Val, ds.Test); accs[1] < 0.5 || accs[0] < 0.5 {
		t.Fatalf("held-out accuracy too low: val %v test %v", accs[0], accs[1])
	}
	if math.IsNaN(res.FinalTrainAcc) {
		t.Fatal("NaN train accuracy")
	}
}

func TestRunMiniBatchLearns(t *testing.T) {
	ds := GenerateCommunityDataset("comms", 256, 4, 10, 2, 16, 0.3, 13)
	res, err := RunMiniBatch(ds, 20, ModelConfig{Hidden: 16, Layers: 2, LR: 0.01, Seed: 3}, SamplingConfig{Fanout: 5, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochLoss) != 20 {
		t.Fatalf("%d epochs", len(res.EpochLoss))
	}
	if res.EpochLoss[19] >= res.EpochLoss[0] {
		t.Fatalf("minibatch loss did not decrease: %v -> %v", res.EpochLoss[0], res.EpochLoss[19])
	}
	if acc := accuracy(t, res.Model, ds, ds.Test)[0]; acc < 0.5 {
		t.Fatalf("minibatch test accuracy %v", acc)
	}
}

// TestRunMiniBatchMatchesReference pins RunMiniBatch to the sampled
// trainer's serial mirror: its epoch losses are minibatch.Dist's
// ReferenceEpochs on one rank with Adam at cfg.LR and the sampling seed
// defaulted to the weight seed, bit for bit.
func TestRunMiniBatchMatchesReference(t *testing.T) {
	const epochs = 4
	ds := GenerateCommunityDataset("comms", 256, 4, 10, 2, 16, 0.3, 13)
	cfg := ModelConfig{Hidden: 16, Layers: 2, LR: 0.01, Seed: 3}
	res, err := RunMiniBatch(ds, epochs, cfg, SamplingConfig{Fanout: 5, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	dims := gcn.LayerDims(ds.FeatureDim(), cfg.Hidden, ds.Classes, cfg.Layers)
	want := minibatch.NewDist(comm.NewWorld(1, Perlmutter()), distmm.UniformLayout(ds.G.NumVertices(), 1),
		ds.NormalizedAdjacency(), ds.Features, ds.Labels, ds.Train, dims, cfg.Seed,
		func() opt.Optimizer { return opt.NewAdam(cfg.LR) },
		minibatch.DistConfig{Fanout: 5, BatchSize: 32, Seed: cfg.Seed}).ReferenceEpochs(epochs)
	for e, loss := range res.EpochLoss {
		if math.Float64bits(loss) != math.Float64bits(want[e].Loss) {
			t.Fatalf("epoch %d: RunMiniBatch loss %v, reference %v", e, loss, want[e].Loss)
		}
	}
}
