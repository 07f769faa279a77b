package sagnn

import (
	"math"
	"testing"
)

func TestTrainPublicAPI1D(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	res, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}, ModelConfig{}, 3)
	if len(res.History) != 3 {
		t.Fatalf("history %d", len(res.History))
	}
	if res.EpochSeconds <= 0 || math.IsNaN(res.FinalLoss) {
		t.Fatalf("bad result %+v", res)
	}
	if res.PartitionQuality == nil {
		t.Fatal("expected partition quality")
	}
}

func TestTrainPublicAPI15D(t *testing.T) {
	ds := MustLoadDataset(AmazonSim, 42, 64)
	res, _ := trainVia(t, ds, 8, DistOpts{Algorithm: Oblivious15D, Replication: 2}, ModelConfig{}, 2)
	if _, ok := res.Breakdown["allreduce"]; !ok {
		t.Fatalf("1.5D must all-reduce: %v", res.Breakdown)
	}
	if res.PartitionQuality != nil {
		t.Fatal("no partitioner requested")
	}
}

func TestTrainSerialLearns(t *testing.T) {
	ds := MustLoadDataset(RedditSim, 42, 64)
	res, err := RunSerial(ds, 15, ModelConfig{Hidden: 16, Layers: 3, LR: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := res.History
	if hist[len(hist)-1].Loss >= hist[0].Loss {
		t.Fatalf("loss did not improve: %v -> %v", hist[0].Loss, hist[len(hist)-1].Loss)
	}
}

func TestTrainMatchesSerialTrajectory(t *testing.T) {
	ds := MustLoadDataset(RedditSim, 42, 64)
	cfg := ModelConfig{Hidden: 16, Layers: 3, LR: 0.05, Seed: 7}
	serial, err := RunSerial(ds, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D}, cfg, 5)
	for i, want := range serial.History {
		if math.Abs(want.Loss-dist.History[i].Loss) > 1e-8 {
			t.Fatalf("epoch %d: serial %v dist %v", i, want.Loss, dist.History[i].Loss)
		}
	}
}

func TestEvaluatePartitioners(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	qs := EvaluatePartitioners(ds, 8, 42)
	if len(qs) != 4 {
		t.Fatalf("want 4 partitioners, got %d", len(qs))
	}
	byName := map[string]int64{}
	for _, q := range qs {
		byName[q.Partitioner] = q.EdgeCut
	}
	// On the scrambled banded graph, multilevel partitioners must beat the
	// structure-blind ones decisively.
	if byName["gvb"]*2 > byName["block"] {
		t.Fatalf("gvb cut %d should be ≪ block cut %d", byName["gvb"], byName["block"])
	}
}

func TestTrainValidation(t *testing.T) {
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Distribute(nil, DistOpts{Algorithm: Oblivious1D}); err == nil {
		t.Fatal("expected an error on nil dataset")
	}
	ds := MustLoadDataset(ProteinSim, 42, 64)
	if _, err := cluster.Distribute(withLabel(ds, ds.Train[0], ds.Classes), DistOpts{Algorithm: Oblivious1D}); err == nil {
		t.Fatal("expected an error on a training label outside [0, Classes)")
	}
}

func TestTrainSAGEVariant(t *testing.T) {
	ds := GenerateCommunityDataset("comms", 256, 4, 10, 2, 16, 0.3, 19)
	res, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D}, ModelConfig{LR: 0.3, Seed: 5, SAGE: true}, 40)
	if res.TestAcc < 0.5 {
		t.Fatalf("SAGE test accuracy too low: %v", res.TestAcc)
	}
	if res.History[39].Loss >= res.History[0].Loss {
		t.Fatal("SAGE loss did not decrease")
	}
}
