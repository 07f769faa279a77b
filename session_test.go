package sagnn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"sagnn/internal/distmm"
)

// trainVia runs the composable API end to end — NewCluster → Distribute →
// NewSession → Run — returning the result and the DistGraph (whose cluster
// exposes per-rank counters to the tests).
func trainVia(t *testing.T, ds *Dataset, p int, opts DistOpts, cfg ModelConfig, epochs int) (*TrainResult, *DistGraph) {
	t.Helper()
	cluster, err := NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	return res, dg
}

// TestSessionRunsReproduceGolden pins run-to-run determinism of the whole
// Cluster→Distribute→Session path: two independent builds of the same
// configuration produce bit-identical losses, accuracies, modeled times,
// comm volumes, and per-rank byte counters (the golden ledger).
func TestSessionRunsReproduceGolden(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	const epochs = 3
	opts := DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}

	first, dg1 := trainVia(t, ds, 4, opts, ModelConfig{Seed: 7}, epochs)
	res, dg2 := trainVia(t, ds, 4, opts, ModelConfig{Seed: 7}, epochs)

	if len(res.History) != epochs || len(first.History) != epochs {
		t.Fatalf("history %d vs %d, want %d", len(res.History), len(first.History), epochs)
	}
	for i := range res.History {
		if res.History[i].Loss != first.History[i].Loss {
			t.Fatalf("epoch %d loss %v != %v", i, res.History[i].Loss, first.History[i].Loss)
		}
		if res.History[i].TrainAcc != first.History[i].TrainAcc {
			t.Fatalf("epoch %d acc %v != %v", i, res.History[i].TrainAcc, first.History[i].TrainAcc)
		}
	}
	if res.EpochSeconds != first.EpochSeconds {
		t.Fatalf("EpochSeconds %v != %v", res.EpochSeconds, first.EpochSeconds)
	}
	for ph, v := range first.Breakdown {
		if res.Breakdown[ph] != v {
			t.Fatalf("breakdown[%s] %v != %v", ph, res.Breakdown[ph], v)
		}
	}
	if res.MaxSentMB != first.MaxSentMB || res.AvgSentMB != first.AvgSentMB || res.TotalRecvMB != first.TotalRecvMB {
		t.Fatalf("volumes (%v,%v,%v) != (%v,%v,%v)", res.MaxSentMB, res.AvgSentMB, res.TotalRecvMB,
			first.MaxSentMB, first.AvgSentMB, first.TotalRecvMB)
	}
	if res.TotalRecvMB <= 0 {
		t.Fatalf("TotalRecvMB %v: a 4-rank run delivers data", res.TotalRecvMB)
	}
	if got, want := accuracy(t, res.Model, ds, ds.Val, ds.Test), accuracy(t, first.Model, ds, ds.Val, ds.Test); !slices.Equal(got, want) {
		t.Fatalf("eval %v != %v", got, want)
	}
	if res.Model == nil || first.Model == nil {
		t.Fatal("trained model not exposed")
	}
	v1 := dg1.cluster.world.Stats().Snapshot()
	v2 := dg2.cluster.world.Stats().Snapshot()
	for r := 0; r < 4; r++ {
		if v1.BytesSent(r) != v2.BytesSent(r) || v1.BytesRecv(r) != v2.BytesRecv(r) {
			t.Fatalf("rank %d volumes differ: sent %d vs %d, recv %d vs %d",
				r, v1.BytesSent(r), v2.BytesSent(r), v1.BytesRecv(r), v2.BytesRecv(r))
		}
	}
}

// TestRunUntilStoppedSizesHistoryByTraining: the epochs argument may mean
// "until a callback stops the run", so nothing may be allocated in
// proportion to it — MaxInt32 epoch results would be tens of gigabytes.
func TestRunUntilStoppedSizesHistoryByTraining(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 7}, WithEpochCallback(func(e EpochResult) error {
		if e.Epoch == 1 {
			return ErrStopTraining
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("stopped after epoch 2 with %d results", len(res.History))
	}
}

// TestDistributeReusedAcrossSessions is the build-once/train-many
// acceptance test: one Distribute backs multiple sessions with different
// seeds, no engine is rebuilt, Â·X is moved by the first session only,
// per-run comm volumes match the golden ledger bit-identically, and — the regression the old Ledger.Scale bug
// caused — the second run reports the same EpochSeconds as the first.
func TestDistributeReusedAcrossSessions(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)})
	if err != nil {
		t.Fatal(err)
	}
	builds := distmm.EngineBuilds()

	world := dg.cluster.world
	type run struct {
		res  *TrainResult
		sent []int64
	}
	var runs []run
	for _, seed := range []int64{7, 99} {
		before := world.Stats().Snapshot()
		sess, err := dg.NewSession(ModelConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		delta := world.Stats().Snapshot().Sub(before)
		sent := make([]int64, cluster.Processes())
		for r := range sent {
			sent[r] = delta.BytesSent(r)
		}
		runs = append(runs, run{res: res, sent: sent})
	}

	if got := distmm.EngineBuilds(); got != builds {
		t.Fatalf("engine rebuilt: %d builds during sessions", got-builds)
	}
	// Different seeds → different trajectories, same communication — except
	// that the graph's first session also moved Â·X, once, exactly as the
	// plan predicts at the feature width.
	if runs[0].res.FinalLoss == runs[1].res.FinalLoss {
		t.Fatal("different seeds produced identical losses")
	}
	setup := dg.engine.Plan().Volumes(ds.FeatureDim())
	for r := range runs[0].sent {
		if runs[0].sent[r]-setup[r].SentBytes != runs[1].sent[r] {
			t.Fatalf("rank %d: run volumes differ %d − %d set-up vs %d (schedule not reused?)",
				r, runs[0].sent[r], setup[r].SentBytes, runs[1].sent[r])
		}
	}
	if runs[0].res.SetupMaxSentMB <= 0 || runs[1].res.SetupMaxSentMB != 0 || runs[1].res.SetupSeconds != 0 {
		t.Fatalf("set-up reported on the wrong run: first %v MB, second %v MB / %v s",
			runs[0].res.SetupMaxSentMB, runs[1].res.SetupMaxSentMB, runs[1].res.SetupSeconds)
	}
	// The second run must report the same per-epoch figures as the first:
	// under the old Ledger.Scale(1/epochs) mutation it would have read a
	// corrupted ledger (off by the first run's epoch count). Times come from
	// a floating-point delta against a moving baseline, so allow rounding at
	// the last ulp; volumes are integer-exact.
	a, b := runs[0].res.EpochSeconds, runs[1].res.EpochSeconds
	if math.Abs(a-b) > 1e-9*math.Abs(a) {
		t.Fatalf("EpochSeconds drifted across runs on one world: %v vs %v", a, b)
	}
	if runs[0].res.MaxSentMB != runs[1].res.MaxSentMB {
		t.Fatalf("MaxSentMB drifted across runs: %v vs %v", runs[0].res.MaxSentMB, runs[1].res.MaxSentMB)
	}

	// Same seed on the same DistGraph reproduces the first run exactly:
	// sessions are independent (fresh replicas/optimizers), not resumed.
	sess, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.History {
		if res.History[i].Loss != runs[0].res.History[i].Loss {
			t.Fatalf("epoch %d: seed-7 rerun loss %v != original %v", i, res.History[i].Loss, runs[0].res.History[i].Loss)
		}
	}
}

// TestConcurrentRunsIsolatedAccounting runs two sessions on two different
// DistGraphs of one shared cluster concurrently: each run's reported
// volumes must match a solo run exactly (per-step attribution under the
// cluster step lock), not include the other run's traffic.
func TestConcurrentRunsIsolatedAccounting(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	const epochs = 3

	solo := func(algo Algorithm) *TrainResult {
		res, _ := trainVia(t, ds, 4, DistOpts{Algorithm: algo}, ModelConfig{Seed: 7}, epochs)
		return res
	}
	soloSA, soloObl := solo(SparsityAware1D), solo(Oblivious1D)

	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dgSA, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}
	dgObl, err := cluster.Distribute(ds, DistOpts{Algorithm: Oblivious1D})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*TrainResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, dg := range []*DistGraph{dgSA, dgObl} {
		wg.Add(1)
		go func(i int, dg *DistGraph) {
			defer wg.Done()
			sess, err := dg.NewSession(ModelConfig{Seed: 7})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = sess.Run(context.Background(), epochs)
		}(i, dg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []*TrainResult{soloSA, soloObl} {
		got := results[i]
		if got.MaxSentMB != want.MaxSentMB || got.AvgSentMB != want.AvgSentMB || got.TotalRecvMB != want.TotalRecvMB {
			t.Fatalf("run %d: concurrent volumes (%v,%v,%v) != solo (%v,%v,%v) — cross-session leakage",
				i, got.MaxSentMB, got.AvgSentMB, got.TotalRecvMB, want.MaxSentMB, want.AvgSentMB, want.TotalRecvMB)
		}
		if math.Abs(got.EpochSeconds-want.EpochSeconds) > 1e-9*want.EpochSeconds {
			t.Fatalf("run %d: concurrent EpochSeconds %v != solo %v", i, got.EpochSeconds, want.EpochSeconds)
		}
		if got.FinalLoss != want.FinalLoss {
			t.Fatalf("run %d: concurrent loss %v != solo %v", i, got.FinalLoss, want.FinalLoss)
		}
	}
}

// TestSessionStepMatchesRun verifies Step-by-step training is the same
// computation as Run.
func TestSessionStepMatchesRun(t *testing.T) {
	ds := MustLoadDataset(RedditSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: Oblivious1D})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s1.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		step, err := s2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.Epoch != i {
			t.Fatalf("step %d numbered %d", i, step.Epoch)
		}
		if step.Loss != res.History[i].Loss {
			t.Fatalf("epoch %d: Step loss %v != Run loss %v", i, step.Loss, res.History[i].Loss)
		}
	}
	if s2.Epoch() != 4 || len(s2.History()) != 4 {
		t.Fatalf("epoch %d, history %d", s2.Epoch(), len(s2.History()))
	}
}

// TestCheckpointRoundTrip trains, snapshots, trains on, restores, and
// retrains: the replayed epochs must be bit-identical. The checkpoint also
// survives serialization.
func TestCheckpointRoundTrip(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	ck := sess.Snapshot()
	if ck.Epoch() != 3 {
		t.Fatalf("checkpoint at epoch %d", ck.Epoch())
	}

	first, err := sess.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}

	// In-memory restore.
	if err := sess.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != 3 {
		t.Fatalf("restored to epoch %d", sess.Epoch())
	}
	replay, err := sess.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range replay.History {
		if replay.History[i].Loss != first.History[i].Loss ||
			replay.History[i].Epoch != first.History[i].Epoch {
			t.Fatalf("epoch %d: replay %+v != original %+v", i, replay.History[i], first.History[i])
		}
	}

	// Serialized restore.
	blob, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != ck.Epoch() {
		t.Fatalf("loaded epoch %d != %d", loaded.Epoch(), ck.Epoch())
	}
	if err := sess.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	replay2, err := sess.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range replay2.History {
		if replay2.History[i].Loss != first.History[i].Loss {
			t.Fatalf("epoch %d: serialized replay %v != original %v", i, replay2.History[i].Loss, first.History[i].Loss)
		}
	}

	// Fast-forward restore into a fresh session: the epoch counter jumps,
	// history stays consistent (only observed epochs, correctly numbered).
	fresh, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if fresh.Epoch() != 3 || len(fresh.History()) != 0 {
		t.Fatalf("fast-forward: epoch %d, history %d", fresh.Epoch(), len(fresh.History()))
	}
	step, err := fresh.Step()
	if err != nil {
		t.Fatal(err)
	}
	if step.Epoch != 3 || step.Loss != first.History[0].Loss {
		t.Fatalf("fast-forward step %+v, want epoch 3 loss %v", step, first.History[0].Loss)
	}
	if h := fresh.History(); len(h) != 1 || h[0].Epoch != 3 {
		t.Fatalf("fast-forward history %+v", h)
	}

	// Shape mismatches are errors, not panics.
	other, err := dg.NewSession(ModelConfig{Seed: 1, Hidden: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(ck); err == nil {
		t.Fatal("restored a 16-hidden checkpoint into an 8-hidden session")
	}
	if err := sess.Restore(nil); err == nil {
		t.Fatal("restored a nil checkpoint")
	}
	if _, err := LoadCheckpoint(blob[:10]); err == nil {
		t.Fatal("loaded a truncated checkpoint")
	}
}

// TestRunContextCancellation stops a run mid-flight via context and via
// callbacks, checking partial results come back in both cases.
func TestRunContextCancellation(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from an epoch callback after the second epoch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := dg.NewSession(ModelConfig{Seed: 7}, WithEpochCallback(func(e EpochResult) error {
		if e.Epoch == 1 {
			cancel()
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ctx, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(res.History) != 2 {
		t.Fatalf("ran %d epochs after cancellation at epoch 1", len(res.History))
	}
	if res.FinalLoss == 0 || math.IsNaN(res.FinalLoss) {
		t.Fatalf("partial result not populated: %+v", res)
	}

	// Early stopping via ErrStopTraining is a clean stop.
	sess2, err := dg.NewSession(ModelConfig{Seed: 7}, WithEpochCallback(func(e EpochResult) error {
		if e.Epoch >= 2 {
			return ErrStopTraining
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess2.Run(context.Background(), 50)
	if err != nil {
		t.Fatalf("early stop should be clean, got %v", err)
	}
	if len(res2.History) != 3 {
		t.Fatalf("early stop ran %d epochs", len(res2.History))
	}

	// Any other callback error aborts and surfaces.
	boom := errors.New("boom")
	sess3, err := dg.NewSession(ModelConfig{Seed: 7}, WithEpochCallback(func(EpochResult) error { return boom }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess3.Run(context.Background(), 3); !errors.Is(err, boom) {
		t.Fatalf("want callback error, got %v", err)
	}
}

// TestModelServing covers the inference path: session → model → predict,
// serialization round-trips, and input validation.
func TestModelServing(t *testing.T) {
	ds := GenerateCommunityDataset("comms", 512, 4, 10, 2, 16, 0.3, 19)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(1)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 5, LR: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}

	if acc := accuracy(t, res.Model, ds, ds.Test)[0]; acc < 0.5 {
		t.Fatalf("test accuracy %v too low (chance = 0.25)", acc)
	}

	// The session's snapshot of the weights predicts what the run's model
	// does.
	direct, err := res.Model.Predict(ds, ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := sess.Model()
	served, err := snapshot.Predict(ds, ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != served[i] {
			t.Fatalf("vertex %d: run model %d vs session snapshot %d", ds.Test[i], direct[i], served[i])
		}
	}

	// Probabilities are rows of a distribution.
	probs, err := snapshot.Probabilities(ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range probs {
		sum := 0.0
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probability row sums to %v", sum)
		}
	}

	// Serialization round-trip preserves predictions.
	blob, err := res.Model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Predict(ds, ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != again[i] {
			t.Fatalf("vertex %d: prediction changed after round-trip", ds.Test[i])
		}
	}

	// Validation: out-of-range vertices and mismatched datasets error.
	if _, err := snapshot.Predict(ds, []int{-1}); err == nil {
		t.Fatal("predicted vertex -1")
	}
	if _, err := snapshot.Predict(ds, []int{ds.G.NumVertices()}); err == nil {
		t.Fatal("predicted out-of-range vertex")
	}
	other := GenerateCommunityDataset("wrong", 128, 4, 6, 2, 8, 0.3, 3) // feature width 8 ≠ 16
	if _, err := res.Model.Predict(other, nil); err == nil {
		t.Fatal("predicted on mismatched feature width")
	}
}

// TestNewAPIValidation checks public entry points return errors (not
// panics) on bad input.
func TestNewAPIValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("NewCluster(0)")
	}
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Distribute(nil, DistOpts{Algorithm: Oblivious1D}); err == nil {
		t.Fatal("Distribute(nil)")
	}
	ds := MustLoadDataset(ProteinSim, 42, 64)
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm")
	}
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: Oblivious1D, Replication: 2}); err == nil {
		t.Fatal("1D with replication 2")
	}
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: Oblivious15D, Replication: 3}); err == nil {
		t.Fatal("replication 3 on 4 processes")
	}
	for _, alg := range []Algorithm{AlgorithmAuto, Oblivious15D} {
		if _, err := cluster.Distribute(ds, DistOpts{Algorithm: alg, Replication: -3}); err == nil {
			t.Fatalf("%s with replication -3", alg)
		}
	}
	// A bad sampling config is Distribute's error naming the field, on the
	// explicit and the auto path — not a recovered panic at the first
	// RunSampled.
	for _, alg := range []Algorithm{SparsityAware1D, AlgorithmAuto} {
		for field, sc := range map[string]SamplingConfig{"Fanout": {Fanout: -1}, "BatchSize": {BatchSize: -7}} {
			_, err := cluster.Distribute(ds, DistOpts{Algorithm: alg, Sampling: &sc})
			if err == nil || !strings.Contains(err.Error(), "SamplingConfig."+field) {
				t.Fatalf("%s with negative %s: got %v", alg, field, err)
			}
		}
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: Oblivious1D})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dg.NewSession(ModelConfig{Layers: -1}); err == nil {
		t.Fatal("negative layers")
	}
	if _, err := dg.NewSession(ModelConfig{LR: -0.1}); err == nil {
		t.Fatal("negative learning rate")
	}
	sess, err := dg.NewSession(ModelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 0); err == nil {
		t.Fatal("zero epochs")
	}

	if _, err := RunSerial(nil, 5, ModelConfig{}); err == nil {
		t.Fatal("RunSerial(nil)")
	}
	if _, err := RunSerial(ds, 0, ModelConfig{}); err == nil {
		t.Fatal("RunSerial 0 epochs")
	}
	if _, err := RunMiniBatch(nil, 5, ModelConfig{}, SamplingConfig{}); err == nil {
		t.Fatal("RunMiniBatch(nil)")
	}
	if _, err := RunMiniBatch(ds, 5, ModelConfig{}, SamplingConfig{Fanout: -1}); err == nil {
		t.Fatal("negative fanout")
	}
	if _, err := RunMiniBatch(ds, 5, ModelConfig{}, SamplingConfig{BatchSize: -1}); err == nil {
		t.Fatal("negative batch size")
	}

	// Labels of split vertices index the loss: out of [0, Classes) is an
	// error up front, on every entry point, for every split.
	for _, bad := range []*Dataset{
		withLabel(ds, ds.Train[0], -1),
		withLabel(ds, ds.Val[0], ds.Classes),
		withLabel(ds, ds.Test[0], ds.Classes+3),
	} {
		if _, err := cluster.Distribute(bad, DistOpts{Algorithm: Oblivious1D}); err == nil {
			t.Fatal("Distribute accepted an out-of-range split label")
		}
		if _, err := RunSerial(bad, 1, ModelConfig{}); err == nil {
			t.Fatal("RunSerial accepted an out-of-range split label")
		}
		if _, err := RunMiniBatch(bad, 1, ModelConfig{}, SamplingConfig{}); err == nil {
			t.Fatal("RunMiniBatch accepted an out-of-range split label")
		}
	}
	// A vertex in no split may stay unlabeled.
	unlabeled := withLabel(ds, ds.Test[0], -1)
	unlabeled.Test = ds.Test[1:]
	if _, err := cluster.Distribute(unlabeled, DistOpts{Algorithm: Oblivious1D}); err != nil {
		t.Fatalf("unlabeled vertex outside every split rejected: %v", err)
	}
}

// withLabel returns a shallow copy of ds in which vertex v has label l.
func withLabel(ds *Dataset, v, l int) *Dataset {
	c := *ds
	c.Labels = append([]int(nil), ds.Labels...)
	c.Labels[v] = l
	return &c
}

// TestEmptyTrainSetTypedError: every trainer reports a dataset with no
// training vertices as ErrEmptyTrainSet — not a zero loss, not NaN.
func TestEmptyTrainSetTypedError(t *testing.T) {
	empty := *MustLoadDataset(ProteinSim, 42, 64)
	empty.Train = nil
	session := func() *Session {
		cluster, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cluster.Distribute(&empty, DistOpts{Algorithm: SparsityAware1D})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dg.NewSession(ModelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	for name, run := range map[string]func() error{
		"Session.Run":        func() error { _, err := session().Run(context.Background(), 2); return err },
		"Session.RunSampled": func() error { _, err := session().RunSampled(context.Background(), 2); return err },
		"RunSerial":          func() error { _, err := RunSerial(&empty, 2, ModelConfig{}); return err },
		"RunMiniBatch":       func() error { _, err := RunMiniBatch(&empty, 2, ModelConfig{}, SamplingConfig{}); return err },
	} {
		if err := run(); !errors.Is(err, ErrEmptyTrainSet) {
			t.Errorf("%s: got %v, want ErrEmptyTrainSet", name, err)
		}
	}
}

// TestHeldOutEvalMatchesPredictor: the validation and test accuracies
// Model.Accuracy reports for a run's model (one full-batch forward over the
// trained weights) are exactly
// what the same model's Predict measures on the same splits, each over its
// own receptive field — on a partitioned graph too, where training ran in
// the permuted order.
func TestHeldOutEvalMatchesPredictor(t *testing.T) {
	ds := GenerateCommunityDataset("comms", 512, 4, 10, 2, 16, 0.3, 19)
	check := func(name string, m *Model, reported []float64, sets ...[]int) {
		for i, set := range sets {
			classes, err := m.Predict(ds, set)
			if err != nil {
				t.Fatal(err)
			}
			correct := 0
			for j, v := range set {
				if classes[j] == ds.Labels[v] {
					correct++
				}
			}
			if acc := float64(correct) / float64(len(set)); acc != reported[i] {
				t.Errorf("%s: reported accuracy %v on split %d, Predict measures %v", name, reported[i], i, acc)
			}
		}
	}
	cfg := ModelConfig{Seed: 5, LR: 0.3}
	for _, pt := range []Partitioner{nil, NewGVB(19)} {
		dist, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D, Partitioner: pt}, cfg, 10)
		check(fmt.Sprintf("Session.Run/%v", pt), dist.Model, accuracy(t, dist.Model, ds, ds.Val, ds.Test), ds.Val, ds.Test)
	}
	serial, err := RunSerial(ds, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("RunSerial", serial.Model, accuracy(t, serial.Model, ds, ds.Val, ds.Test), ds.Val, ds.Test)
	mb, err := RunMiniBatch(ds, 3, ModelConfig{Seed: 5, LR: 0.01}, SamplingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check("RunMiniBatch", mb.Model, accuracy(t, mb.Model, ds, ds.Test), ds.Test)
}

// TestRunSerialAndMiniBatchResults checks the refreshed local entry points
// train and expose their models.
func TestRunSerialAndMiniBatchResults(t *testing.T) {
	ds := GenerateCommunityDataset("social", 512, 4, 10, 2, 16, 0.3, 7)
	serial, err := RunSerial(ds, 20, ModelConfig{LR: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.History) != 20 {
		t.Fatalf("history %d", len(serial.History))
	}
	if serial.History[19].Loss >= serial.History[0].Loss {
		t.Fatal("serial loss did not improve")
	}
	if serial.Model == nil {
		t.Fatal("serial model missing")
	}
	if _, err := serial.Model.Predict(ds, []int{0}); err != nil {
		t.Fatal(err)
	}

	mb, err := RunMiniBatch(ds, 5, ModelConfig{LR: 0.01, Seed: 5}, SamplingConfig{Fanout: 4, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.EpochLoss) != 5 || mb.Model == nil {
		t.Fatalf("bad minibatch result: %d losses, model %v", len(mb.EpochLoss), mb.Model)
	}
}
