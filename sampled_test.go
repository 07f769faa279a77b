package sagnn

import (
	"context"
	"errors"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/gcn"
)

// sampledSession builds a 4-process sampled-training session over the small
// protein-sim dataset.
func sampledSession(t *testing.T, exec ExecMode, opts ...SessionOption) *Session {
	t.Helper()
	ds := MustLoadDataset("protein-sim", 1, 64)
	cl, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(ds, DistOpts{
		Algorithm:   SparsityAware1D,
		Partitioner: NewGVB(1),
		Exec:        exec,
		Sampling:    &SamplingConfig{Fanout: 3, BatchSize: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 1}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestRunSampledBitIdenticalAcrossExecModes pins launch determinism at the
// public API: the same sampled run under the sequential and the overlapped
// plan executor produces bit-identical epoch losses and accuracies.
func TestRunSampledBitIdenticalAcrossExecModes(t *testing.T) {
	seq, err := sampledSession(t, ExecSequential).RunSampled(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := sampledSession(t, ExecOverlap).RunSampled(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.History) != 3 || len(ovl.History) != len(seq.History) {
		t.Fatalf("histories: %d vs %d epochs", len(seq.History), len(ovl.History))
	}
	for e := range seq.History {
		if seq.History[e] != ovl.History[e] {
			t.Fatalf("epoch %d: seq %+v != overlap %+v", e, seq.History[e], ovl.History[e])
		}
	}
	if seq.FinalLoss <= 0 || seq.History[2].Loss >= seq.History[0].Loss {
		t.Fatalf("sampled training did not reduce loss: %+v", seq.History)
	}
}

// TestRunSampledFaultRecoveryBitIdentical injects a communication fault
// mid-sampled-run and requires WithRecovery to roll back and replay to the
// same final losses and weights an unfaulted run produces — sampling streams
// depend only on absolute epoch indices, never on the retry count.
func TestRunSampledFaultRecoveryBitIdentical(t *testing.T) {
	clean, err := sampledSession(t, ExecSequential).RunSampled(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	sess := sampledSession(t, ExecSequential,
		WithAutoSnapshot(1), WithRecovery(3, time.Millisecond))
	sess.dg.Cluster().InjectFault(1, 7, nil)
	res, err := sess.RunSampled(context.Background(), 4)
	if err != nil {
		t.Fatalf("recovery did not absorb the fault: %v", err)
	}
	if len(res.History) != len(clean.History) {
		t.Fatalf("recovered run has %d epochs, clean has %d", len(res.History), len(clean.History))
	}
	for e := range clean.History {
		if res.History[e] != clean.History[e] {
			t.Fatalf("epoch %d: recovered %+v != clean %+v", e, res.History[e], clean.History[e])
		}
	}
	if res.Model.m.MaxWeightDiff(clean.Model.m) != 0 {
		t.Fatal("recovered weights differ from clean run")
	}
}

// TestRunSampledFaultWithoutRecovery pins the typed-error path: without
// WithRecovery an injected fault surfaces as *RankError with the injected
// cause, and the session remains usable afterwards (the run loop rolled the
// steppers back to the last completed launch).
func TestRunSampledFaultWithoutRecovery(t *testing.T) {
	sess := sampledSession(t, ExecSequential, WithAutoSnapshot(1))
	sess.dg.Cluster().InjectFault(2, 7, nil)
	_, err := sess.RunSampled(context.Background(), 3)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("got %v, want ErrInjectedFault", err)
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("fault not typed as *RankError: %v", err)
	}
	if _, err := sess.RunSampled(context.Background(), 1); err != nil {
		t.Fatalf("session unusable after rolled-back fault: %v", err)
	}
}

// TestRunSampledInterleavesWithRun checks the one-logical-model contract:
// sampled and full-batch runs on the same session share weights, the epoch
// counter, and history numbering.
func TestRunSampledInterleavesWithRun(t *testing.T) {
	sess := sampledSession(t, ExecSequential)
	if _, err := sess.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	before := sess.Model()
	res, err := sess.RunSampled(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != 4 {
		t.Fatalf("epoch counter %d after 2 full + 2 sampled epochs", sess.Epoch())
	}
	if res.History[0].Epoch != 2 || res.History[1].Epoch != 3 {
		t.Fatalf("sampled epochs numbered %d,%d; want 2,3", res.History[0].Epoch, res.History[1].Epoch)
	}
	if sess.Model().m.MaxWeightDiff(before.m) == 0 {
		t.Fatal("sampled run did not train the session's model")
	}
	hist := sess.History()
	if len(hist) != 4 {
		t.Fatalf("session history has %d entries", len(hist))
	}
	if _, err := sess.Run(context.Background(), 1); err != nil {
		t.Fatalf("full-batch run after sampled run: %v", err)
	}
}

// TestRunSampledInterleavedRecovery runs full-batch, sampled, full-batch on
// one session under WithRecovery with a fault injected into the sampled leg:
// the rollback and replay must reproduce an unfaulted session's losses and
// weights bit for bit — both modes step one replica set, so the restored
// snapshot is the state either mode resumes from.
func TestRunSampledInterleavedRecovery(t *testing.T) {
	legs := func(sess *Session, fault bool) (hist []EpochResult) {
		ctx := context.Background()
		for i, run := range []func(context.Context, int) (*TrainResult, error){sess.Run, sess.RunSampled, sess.Run} {
			if fault && i == 1 {
				sess.dg.Cluster().InjectFault(1, 7, nil)
			}
			res, err := run(ctx, 2)
			if err != nil {
				t.Fatalf("leg %d (fault=%v): %v", i, fault, err)
			}
			hist = append(hist, res.History...)
		}
		return hist
	}
	clean := sampledSession(t, ExecSequential)
	want := legs(clean, false)
	faulted := sampledSession(t, ExecSequential, WithAutoSnapshot(1), WithRecovery(3, time.Millisecond))
	got := legs(faulted, true)
	if len(got) != 6 || len(got) != len(want) {
		t.Fatalf("histories: %d recovered vs %d clean epochs", len(got), len(want))
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("epoch %d: recovered %+v != clean %+v", e, got[e], want[e])
		}
	}
	if faulted.Model().m.MaxWeightDiff(clean.Model().m) != 0 {
		t.Fatal("recovered weights differ from the clean session's")
	}
}

// TestSessionOneReplicaSet: a session that has trained in both modes holds
// one replica per hosted rank — the full-batch and the sampled body are
// handed the very same replicas (model, optimizer, feature slice).
func TestSessionOneReplicaSet(t *testing.T) {
	sess := sampledSession(t, ExecSequential)
	ctx := context.Background()
	if _, err := sess.RunSampled(ctx, 1); err != nil { // builds the sampled body
		t.Fatal(err)
	}
	record := func(body gcn.EpochBody, seen []*gcn.Replica) gcn.EpochBody {
		return func(r *comm.Rank, rep *gcn.Replica, epoch int) (float64, float64, error) {
			seen[r.ID] = rep
			return body(r, rep, epoch)
		}
	}
	full, sampled := make([]*gcn.Replica, 4), make([]*gcn.Replica, 4)
	sess.stepper.Body = record(sess.stepper.Body, full)
	sess.sampledBody = record(sess.sampledBody, sampled)
	if _, err := sess.Run(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSampled(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for rank := range full {
		if full[rank] == nil || full[rank] != sampled[rank] {
			t.Fatalf("rank %d: full-batch body stepped replica %p, sampled body %p", rank, full[rank], sampled[rank])
		}
	}
	if sess.stepper.Model() != full[0].Model {
		t.Fatal("the session's model is not the replica both bodies step")
	}
}

// TestRunSampledRejectsReplicatedLayouts pins the 1D requirement: a 1.5D
// distribution (fewer layout blocks than ranks) cannot host sampled
// training and must error, not panic.
func TestRunSampledRejectsReplicatedLayouts(t *testing.T) {
	ds := MustLoadDataset("protein-sim", 1, 64)
	cl, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(ds, DistOpts{Algorithm: SparsityAware15D, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSampled(context.Background(), 1); err == nil {
		t.Fatal("RunSampled accepted a replicated layout")
	}
}

// TestDistributeCopiesSamplingConfig: Distribute keeps its own validated copy
// of DistOpts.Sampling, so changing the caller's struct afterwards — here
// into values Distribute would have rejected — reaches no later session.
func TestDistributeCopiesSamplingConfig(t *testing.T) {
	want, err := sampledSession(t, ExecSequential).RunSampled(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sc := &SamplingConfig{Fanout: 3, BatchSize: 8, Seed: 1}
	dg, err := cl.Distribute(MustLoadDataset("protein-sim", 1, 64), DistOpts{
		Algorithm: SparsityAware1D, Partitioner: NewGVB(1), Sampling: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	*sc = SamplingConfig{Fanout: -1, BatchSize: -7, Seed: 99}
	sess, err := dg.NewSession(ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.RunSampled(context.Background(), 2)
	if err != nil {
		t.Fatalf("session after the caller changed its SamplingConfig: %v", err)
	}
	for e := range want.History {
		if got.History[e] != want.History[e] {
			t.Fatalf("epoch %d: %+v, want %+v (the config Distribute was given)", e, got.History[e], want.History[e])
		}
	}
}
