package sagnn

import (
	"bytes"
	"context"
	"testing"
)

// runOverlapSession distributes ds with the given exec mode, trains a fresh
// session for epochs, and returns its result and checkpoint bytes.
func runOverlapSession(t *testing.T, ds *Dataset, algo Algorithm, rep int, mode ExecMode, epochs int) (*TrainResult, []byte) {
	t.Helper()
	cluster, err := NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: algo, Replication: rep, Exec: mode})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return res, blob
}

// TestOverlapSessionDeterminism pins that pipelined execution never reorders
// a reduction: two identical sessions trained under ExecOverlap must produce
// byte-identical checkpoint blobs. The CI race job runs this under -race, so
// the determinism claim is checked against real concurrency, not luck.
func TestOverlapSessionDeterminism(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	for _, algo := range []Algorithm{SparsityAware1D, SparsityAware15D} {
		rep := 1
		if algo == SparsityAware15D {
			rep = 2
		}
		_, blob1 := runOverlapSession(t, ds, algo, rep, ExecOverlap, 4)
		_, blob2 := runOverlapSession(t, ds, algo, rep, ExecOverlap, 4)
		if !bytes.Equal(blob1, blob2) {
			t.Errorf("%s: two overlapped runs produced different checkpoints", algo)
		}
	}
}

// TestOverlapSessionMatchesSequential extends determinism across modes:
// the overlapped executor joins at the plan's data dependencies and runs
// compute in sequential program order, so whole training runs — losses,
// accuracies, and final weights — are bit-identical to ExecSequential.
func TestOverlapSessionMatchesSequential(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	for _, algo := range []Algorithm{Oblivious1D, SparsityAware1D, Oblivious15D, SparsityAware15D} {
		rep := 1
		if algo == Oblivious15D || algo == SparsityAware15D {
			rep = 2
		}
		seqRes, seqBlob := runOverlapSession(t, ds, algo, rep, ExecSequential, 4)
		ovlRes, ovlBlob := runOverlapSession(t, ds, algo, rep, ExecOverlap, 4)
		if !bytes.Equal(seqBlob, ovlBlob) {
			t.Errorf("%s: overlap checkpoint differs from sequential", algo)
		}
		for i := range seqRes.History {
			if seqRes.History[i].Loss != ovlRes.History[i].Loss ||
				seqRes.History[i].TrainAcc != ovlRes.History[i].TrainAcc {
				t.Errorf("%s epoch %d: seq loss %v acc %v, overlap loss %v acc %v", algo, i,
					seqRes.History[i].Loss, seqRes.History[i].TrainAcc,
					ovlRes.History[i].Loss, ovlRes.History[i].TrainAcc)
			}
		}
		// Pipelining can only hide communication behind the SpMMs, so the
		// measured (modeled) epoch must not be slower than sequential.
		if ovlRes.EpochSeconds > seqRes.EpochSeconds*(1+1e-9) {
			t.Errorf("%s: overlap epoch %g slower than sequential %g",
				algo, ovlRes.EpochSeconds, seqRes.EpochSeconds)
		}
	}
}

// TestOverlapAutoAndEstimate covers the decision surface: AlgorithmAuto
// under ExecOverlap selects by the overlap column, the report records the
// mode, and every feasible Estimate row prices both executors.
func TestOverlapAutoAndEstimate(t *testing.T) {
	ds := MustLoadDataset(AmazonSim, 42, 64)
	cluster, err := NewCluster(16)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: AlgorithmAuto, Exec: ExecOverlap})
	if err != nil {
		t.Fatal(err)
	}
	rep := dg.Report()
	if rep.Exec != ExecOverlap || !rep.Auto {
		t.Fatalf("report exec=%v auto=%v", rep.Exec, rep.Auto)
	}
	var bestOverlap float64
	selected := 0
	for _, c := range rep.Candidates {
		if c.Skipped != "" {
			continue
		}
		if c.OverlapSeconds <= 0 || c.OverlapSeconds > c.EpochSeconds*(1+1e-12) {
			t.Errorf("%s c=%d: overlap %g must be positive and ≤ sequential %g",
				c.Algorithm, c.Replication, c.OverlapSeconds, c.EpochSeconds)
		}
		if bestOverlap == 0 || c.OverlapSeconds < bestOverlap {
			bestOverlap = c.OverlapSeconds
		}
		if c.Selected {
			selected++
			if c.Algorithm != rep.Algorithm {
				t.Errorf("selected %s, report says %s", c.Algorithm, rep.Algorithm)
			}
		}
	}
	if selected != 1 {
		t.Fatalf("%d selected rows", selected)
	}
	for _, c := range rep.Candidates {
		if c.Selected && c.OverlapSeconds != bestOverlap {
			t.Errorf("selected overlap cost %g, best is %g", c.OverlapSeconds, bestOverlap)
		}
	}

	cands, err := cluster.Estimate(ds, DistOpts{Exec: ExecOverlap})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Skipped == "" && c.OverlapSeconds <= 0 {
			t.Errorf("estimate row %s c=%d missing overlap price", c.Algorithm, c.Replication)
		}
	}
}

// TestUnknownExecModeRejected pins that an ExecMode naming no executor is an
// error from both entry points, not a run whose executor (sequential) and
// priced set-up (overlap) disagree.
func TestUnknownExecModeRejected(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{SparsityAware1D, AlgorithmAuto} {
		if _, err := cluster.Distribute(ds, DistOpts{Algorithm: algo, Exec: ExecMode(2)}); err == nil {
			t.Errorf("%s: Distribute accepted ExecMode(2)", algo)
		}
	}
	if _, err := cluster.Estimate(ds, DistOpts{Exec: ExecMode(2)}); err == nil {
		t.Error("Estimate accepted ExecMode(2)")
	}
	for _, mode := range []ExecMode{ExecSequential, ExecOverlap} {
		if _, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Exec: mode}); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}
