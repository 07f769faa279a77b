package sagnn

import (
	"context"
	"errors"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/gcn"
)

// This file pins the end-to-end recovery acceptance criteria: a Session.Run
// with recovery enabled converges to losses bit-identical to a fault-free
// run once the injected fault clears, context cancellation aborts an
// in-flight epoch (not just epoch boundaries), and an unrecovered fault
// surfaces as a typed error that leaves the session restorable.

// TestSessionAutoRecoveryBitIdentical injects transient comm faults into a
// recovering session — one before the run starts and one mid-run from an
// epoch callback — and requires the final loss history to match a
// fault-free run bit for bit.
func TestSessionAutoRecoveryBitIdentical(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	const epochs = 6

	baseline, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}, ModelConfig{Seed: 7}, epochs)

	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)})
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	sess, err := dg.NewSession(ModelConfig{Seed: 7},
		WithRecovery(3, time.Millisecond),
		WithAutoSnapshot(2),
		WithEpochCallback(func(e EpochResult) error {
			// A second transient fault mid-run: fires during the next
			// epoch's launch, forcing a rollback to the last auto-snapshot.
			if e.Epoch == 2 && !injected {
				injected = true
				cluster.InjectFault(1, 3, nil)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	// First transient fault: fires inside the very first epoch's launch.
	cluster.InjectFault(-1, 5, nil)

	res, err := sess.Run(context.Background(), epochs)
	if err != nil {
		t.Fatalf("recovering run failed: %v", err)
	}
	if !injected {
		t.Fatal("mid-run fault was never injected")
	}
	if len(res.History) != epochs {
		t.Fatalf("recovered run has %d epochs, want %d", len(res.History), epochs)
	}
	for i, e := range res.History {
		if e.Epoch != i {
			t.Fatalf("history entry %d numbered %d (replayed epochs not trimmed?)", i, e.Epoch)
		}
		if e.Loss != baseline.History[i].Loss {
			t.Fatalf("epoch %d: recovered loss %v != fault-free %v", i, e.Loss, baseline.History[i].Loss)
		}
		if e.TrainAcc != baseline.History[i].TrainAcc {
			t.Fatalf("epoch %d: recovered acc %v != fault-free %v", i, e.TrainAcc, baseline.History[i].TrainAcc)
		}
	}
	if res.FinalLoss != baseline.FinalLoss {
		t.Fatalf("final loss %v != fault-free %v", res.FinalLoss, baseline.FinalLoss)
	}
}

// TestSessionFaultWithoutRecoverySurfacesTypedError checks the default
// (no-recovery) contract: an injected fault makes Run return the typed
// *comm.RankError, the session refuses to step on inconsistent state, and a
// checkpoint restore makes it trainable again.
func TestSessionFaultWithoutRecoverySurfacesTypedError(t *testing.T) {
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
	ck := sess.Snapshot()

	cluster.InjectFault(2, 4, nil)
	res, err := sess.Run(context.Background(), 3)
	var re *comm.RankError
	if !errors.As(err, &re) {
		t.Fatalf("want *comm.RankError, got %T: %v", err, err)
	}
	if !errors.Is(err, comm.ErrInjectedFault) {
		t.Fatalf("unexpected cause: %v", err)
	}
	if re.Rank != 2 {
		t.Fatalf("fault attributed to rank %d, want 2", re.Rank)
	}
	if len(res.History) != 0 {
		t.Fatalf("faulted run reported %d epochs", len(res.History))
	}

	// The aborted epoch left per-rank replicas mid-update: stepping without a
	// restore must be refused rather than silently diverging.
	if _, err := sess.Step(); !errors.Is(err, gcn.ErrInconsistent) {
		t.Fatalf("step on inconsistent state: want ErrInconsistent, got %v", err)
	}

	// A restore heals the session; the retrained losses match a clean run.
	if err := sess.Restore(ck); err != nil {
		t.Fatal(err)
	}
	clean, _ := trainVia(t, ds, 4, DistOpts{Algorithm: SparsityAware1D}, ModelConfig{Seed: 7}, 3)
	res2, err := sess.Run(context.Background(), 3)
	if err != nil {
		t.Fatalf("run after restore: %v", err)
	}
	for i := range res2.History {
		if res2.History[i].Loss != clean.History[i].Loss {
			t.Fatalf("epoch %d: post-restore loss %v != clean %v", i, res2.History[i].Loss, clean.History[i].Loss)
		}
	}
}

// TestRunCancelMidEpochAbortsPlan cancels a long run from outside while an
// epoch is in flight: the cancellation must propagate into the running Plan
// (unblocking every rank mid-collective), Run must return promptly with
// ctx.Err(), and the session must remain usable afterwards.
func TestRunCancelMidEpochAbortsPlan(t *testing.T) {
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		res *TrainResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sess.Run(ctx, 100000)
		done <- outcome{res, err}
	}()
	time.Sleep(30 * time.Millisecond) // land inside an epoch, not at a boundary
	cancel()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s of cancellation — epoch not aborted")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", out.err)
	}
	for i, e := range out.res.History {
		if e.Epoch != i {
			t.Fatalf("partial history entry %d numbered %d", i, e.Epoch)
		}
	}

	// The mid-epoch abort rolled back to the last completed launch: the
	// session is clean and training resumes from there without a manual
	// restore.
	resumeFrom := sess.Epoch()
	if resumeFrom != len(out.res.History) {
		t.Fatalf("session at epoch %d but run reported %d epochs", resumeFrom, len(out.res.History))
	}
	step, err := sess.Step()
	if err != nil {
		t.Fatalf("step after cancelled run: %v", err)
	}
	if step.Epoch != resumeFrom {
		t.Fatalf("resumed at epoch %d, want %d", step.Epoch, resumeFrom)
	}
}

// BenchmarkSessionRecoveryOverhead prices failure-awareness in steady
// state: epochs/s of a 4-rank training session with auto-snapshot off vs a
// cadence of every 4 / 2 / 1 epochs, plus a run that absorbs one injected
// comm fault per Run and auto-resumes from its last snapshot (the rollback
// + replay tax). Backs the EXPERIMENTS fault-tolerance table.
func BenchmarkSessionRecoveryOverhead(b *testing.B) {
	ds := MustLoadDataset(ProteinSim, 42, 16)
	cluster, err := NewCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		b.Fatal(err)
	}
	const epochs = 8
	run := func(b *testing.B, fault bool, opts ...SessionOption) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess, err := dg.NewSession(ModelConfig{Seed: 7}, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if fault {
				cluster.InjectFault(-1, 50, nil)
			}
			if _, err := sess.Run(context.Background(), epochs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(epochs)*float64(b.N)/b.Elapsed().Seconds(), "epochs/s")
	}
	b.Run("snapshot-off", func(b *testing.B) { run(b, false) })
	b.Run("snapshot-every-4", func(b *testing.B) { run(b, false, WithAutoSnapshot(4)) })
	b.Run("snapshot-every-2", func(b *testing.B) { run(b, false, WithAutoSnapshot(2)) })
	b.Run("snapshot-every-1", func(b *testing.B) { run(b, false, WithAutoSnapshot(1)) })
	b.Run("one-fault-recovered", func(b *testing.B) {
		run(b, true, WithAutoSnapshot(2), WithRecovery(3, 0))
	})
}
