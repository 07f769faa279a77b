package sagnn

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
)

// autoDS builds a small community dataset the auto-selection tests share.
func autoDS() *Dataset {
	return GenerateCommunityDataset("auto-test", 256, 4, 8, 2, 12, 0.2, 7)
}

// TestEstimateTableShape checks the full candidate table: every 1D and 1.5D
// candidate, feasibility reasons on the rows the process count forbids, and
// exactly one Selected row at the minimum modeled cost.
func TestEstimateTableShape(t *testing.T) {
	ds := autoDS()
	cluster, err := NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := cluster.Estimate(ds, DistOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// P=8: 1D ×2 and c=2 ×2 feasible; c=4 ×2 skipped (c²∤P): 6 rows.
	if len(cands) != 6 {
		t.Fatalf("got %d candidates: %+v", len(cands), cands)
	}
	selected, minCost, minIdx := -1, math.Inf(1), -1
	for i, c := range cands {
		if c.Replication == 4 && c.Skipped == "" {
			t.Errorf("c=4 candidate should be skipped at P=8: %+v", c)
		}
		if c.Skipped != "" {
			if c.EpochSeconds != 0 {
				t.Errorf("skipped candidate has a cost: %+v", c)
			}
			continue
		}
		if c.EpochSeconds <= 0 || c.MaxSentMB < 0 || len(c.Breakdown) == 0 {
			t.Errorf("priced candidate missing fields: %+v", c)
		}
		if c.Selected {
			if selected >= 0 {
				t.Fatalf("two selected candidates: %d and %d", selected, i)
			}
			selected = i
		}
		if c.EpochSeconds < minCost {
			minCost, minIdx = c.EpochSeconds, i
		}
	}
	if selected < 0 {
		t.Fatal("no candidate selected")
	}
	if selected != minIdx {
		t.Fatalf("selected %+v, but min modeled cost is %+v", cands[selected], cands[minIdx])
	}
}

// TestAutoSelectsMinCostDeterministically pins the tentpole behavior:
// Distribute with AlgorithmAuto picks exactly the candidate Estimate marks
// Selected, records the full table in Report, and makes the same choice on
// every run.
func TestAutoSelectsMinCostDeterministically(t *testing.T) {
	ds := autoDS()
	var firstAlg Algorithm
	firstRep := -1
	for trial := 0; trial < 2; trial++ {
		cluster, err := NewCluster(8)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := cluster.Estimate(ds, DistOpts{})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cluster.Distribute(ds, DistOpts{Algorithm: AlgorithmAuto})
		if err != nil {
			t.Fatal(err)
		}
		rep := dg.Report()
		if !rep.Auto {
			t.Fatal("report should record the Auto decision")
		}
		var want *Candidate
		for i := range cands {
			if cands[i].Selected {
				want = &cands[i]
			}
		}
		if want == nil || rep.Algorithm != want.Algorithm || rep.Replication != want.Replication {
			t.Fatalf("Distribute chose %s/c=%d, Estimate selected %+v", rep.Algorithm, rep.Replication, want)
		}
		if dg.Algorithm() != rep.Algorithm {
			t.Fatalf("DistGraph.Algorithm()=%s, report says %s", dg.Algorithm(), rep.Algorithm)
		}
		// The report's table must contain the same priced candidates, with
		// exactly the winner marked.
		nSel := 0
		for _, c := range rep.Candidates {
			if c.Selected {
				nSel++
				if c.EpochSeconds != want.EpochSeconds {
					t.Fatalf("report winner cost %g, estimate winner cost %g", c.EpochSeconds, want.EpochSeconds)
				}
			}
		}
		if nSel != 1 {
			t.Fatalf("%d selected rows in report", nSel)
		}
		if trial == 0 {
			firstAlg, firstRep = rep.Algorithm, rep.Replication
		} else if rep.Algorithm != firstAlg || rep.Replication != firstRep {
			t.Fatalf("non-deterministic selection: %s/c=%d vs %s/c=%d", rep.Algorithm, rep.Replication, firstAlg, firstRep)
		}
	}
}

// TestAutoGraphTrains confirms the auto-selected DistGraph is a fully
// working graph: a session steps and the loss is finite.
func TestAutoGraphTrains(t *testing.T) {
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(autoDS(), DistOpts{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Loss) || res.Loss <= 0 {
		t.Fatalf("loss %v", res.Loss)
	}
}

// TestAutoWithPartitioner checks the partition-per-k path: Auto with a
// partitioner records the winner's partition quality.
func TestAutoWithPartitioner(t *testing.T) {
	cluster, err := NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(autoDS(), DistOpts{Algorithm: AlgorithmAuto, Partitioner: NewGVB(5)})
	if err != nil {
		t.Fatal(err)
	}
	if dg.PartitionQuality() == nil {
		t.Fatal("partition quality missing")
	}
	if dg.Report().PartitionQuality == nil {
		t.Fatal("report partition quality missing")
	}
}

// TestExplicitAlgorithmReport checks the non-Auto report: a single
// self-priced, selected candidate matching the request.
func TestExplicitAlgorithmReport(t *testing.T) {
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(autoDS(), DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}
	rep := dg.Report()
	if rep.Auto {
		t.Fatal("explicit algorithm reported as Auto")
	}
	if rep.Algorithm != SparsityAware1D || len(rep.Candidates) != 1 || !rep.Candidates[0].Selected {
		t.Fatalf("report %+v", rep)
	}
	if rep.Candidates[0].EpochSeconds <= 0 {
		t.Fatalf("unpriced candidate %+v", rep.Candidates[0])
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

// TestDistributeNamedIsSweepRow pins the one distribution path: a named
// (Algorithm, Replication) is the candidate sweep over that one row, so its
// Report row equals the Estimate row field for field (Selected aside), and
// a row the sweep skips is Distribute's error carrying the same reason. The
// grid rule behind the skips is distmm's, and distmm.NewEngine returns it
// as an error instead of panicking.
func TestDistributeNamedIsSweepRow(t *testing.T) {
	ds := autoDS()
	for _, p := range []int{4, 16} {
		cluster, err := NewCluster(p)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cluster.Estimate(ds, DistOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			dg, err := cluster.Distribute(ds, DistOpts{Algorithm: row.Algorithm, Replication: row.Replication})
			if row.Skipped != "" {
				if err == nil || !strings.Contains(err.Error(), row.Skipped) {
					t.Errorf("P=%d %s c=%d: want an error containing %q, got %v", p, row.Algorithm, row.Replication, row.Skipped, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("P=%d %s c=%d: %v", p, row.Algorithm, row.Replication, err)
			}
			got := dg.Report().Candidates
			if len(got) != 1 || !got[0].Selected {
				t.Fatalf("P=%d %s c=%d: want one selected row, got %+v", p, row.Algorithm, row.Replication, got)
			}
			got[0].Selected = row.Selected
			if !reflect.DeepEqual(got[0], row) {
				t.Errorf("P=%d %s c=%d: Distribute row\n%+v\nEstimate row\n%+v", p, row.Algorithm, row.Replication, got[0], row)
			}
		}
	}
	for _, c := range []struct{ p, rep int }{{4, 3}, {8, 4}} {
		w := comm.NewWorld(c.p, Perlmutter())
		layout := distmm.UniformLayout(ds.G.NumVertices(), c.p)
		e, err := distmm.NewEngine(w, string(SparsityAware15D), c.rep, ds.NormalizedAdjacency(), layout)
		if err == nil || e != nil {
			t.Errorf("NewEngine(1.5D, c=%d, P=%d): want an error, got engine %v, err %v", c.rep, c.p, e, err)
		}
	}
}

// TestDistributeRejects2DAndBadAutoOpts pins the error surface: the 2D
// kernels are gone, so their names are unknown algorithms like any other
// misspelling, and Auto owns the replication choice.
func TestDistributeRejects2DAndBadAutoOpts(t *testing.T) {
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	ds := autoDS()
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: "oblivious-2d"}); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("expected an unknown-algorithm error for oblivious-2d, got %v", err)
	}
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: AlgorithmAuto, Replication: 2}); err == nil {
		t.Fatal("expected error for Auto with explicit replication")
	}
}

// TestCostModelValidated pins that a malformed CostModel surfaces as an
// error from the root entry points instead of a panic deep in the stack.
func TestCostModelValidated(t *testing.T) {
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	ds := autoDS()
	bad := ModelConfig{Layers: -1}
	if _, err := cluster.Estimate(ds, DistOpts{CostModel: bad}); err == nil {
		t.Fatal("Estimate accepted a negative layer count")
	}
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, CostModel: bad}); err == nil {
		t.Fatal("Distribute accepted a negative layer count")
	}
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: AlgorithmAuto, CostModel: bad}); err == nil {
		t.Fatal("Auto Distribute accepted a negative layer count")
	}
}

// observeMultiplies records, until the test ends, the dense width of every
// collective multiply the full-batch trainers issue.
func observeMultiplies(t *testing.T) *[]int {
	t.Helper()
	var widths []int
	gcn.ObserveMultiplies(func(w int) { widths = append(widths, w) })
	t.Cleanup(func() { gcn.ObserveMultiplies(nil) })
	return &widths
}

// TestEpochWidthsMatchTrainerMultiplies pins the priced epoch to the
// multiplies the trainer actually issues, counted as they run: a DistGraph's
// first full-batch session issues one multiply at the feature width — the
// set-up Candidate.Setup* prices — and then, per epoch, exactly epochWidths:
// L−1 forward multiplies at the hidden-layer input widths and L−1 backward
// ones at the same widths — for the test's dims [12 16 16 4] the class width
// 4 never reaches a multiply. A second session on the graph issues the epochs
// only, and a session that only samples issues none of them.
func TestEpochWidthsMatchTrainerMultiplies(t *testing.T) {
	ds := autoDS() // 12 features, 4 classes → dims [12 16 16 4]
	const epochs = 3
	for _, tc := range []struct {
		name string
		opts DistOpts
		cfg  ModelConfig
	}{
		{"gcn/1d", DistOpts{Algorithm: SparsityAware1D}, ModelConfig{}},
		{"gcn/1.5d", DistOpts{Algorithm: SparsityAware15D, Replication: 2}, ModelConfig{}},
		{"gcn/oblivious-1.5d/4-layers", DistOpts{Algorithm: Oblivious15D, Replication: 2}, ModelConfig{Layers: 4, Hidden: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perEpoch, err := epochWidths(ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			layers := tc.cfg.withDefaults().Layers
			if len(perEpoch) != 2*layers-2 {
				t.Fatalf("epochWidths %v: want 2L−2 = %d multiplies", perEpoch, 2*layers-2)
			}
			cluster, err := NewCluster(4)
			if err != nil {
				t.Fatal(err)
			}
			dg, err := cluster.Distribute(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := observeMultiplies(t)
			for sess := 0; sess < 2; sess++ {
				*got = (*got)[:0]
				s, err := dg.NewSession(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(context.Background(), epochs); err != nil {
					t.Fatal(err)
				}
				var want []int
				if sess == 0 {
					want = append(want, ds.FeatureDim())
				}
				for e := 0; e < epochs; e++ {
					want = append(want, perEpoch...)
				}
				if !equalInts(*got, want) {
					t.Fatalf("session %d issued multiplies at %v, want %v", sess, *got, want)
				}
			}
		})
	}

	t.Run("sampled-only", func(t *testing.T) {
		got := observeMultiplies(t)
		if _, err := sampledSession(t).RunSampled(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		if len(*got) != 0 {
			t.Fatalf("a session that only sampled issued full-batch multiplies at %v", *got)
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReportDetached pins that mutating a returned Report (including its
// Breakdown maps) does not corrupt the graph's internal record.
func TestReportDetached(t *testing.T) {
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(autoDS(), DistOpts{Algorithm: SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}
	r := dg.Report()
	for ph := range r.Candidates[0].Breakdown {
		r.Candidates[0].Breakdown[ph] = -1
	}
	r.Candidates[0].Selected = false
	fresh := dg.Report()
	if !fresh.Candidates[0].Selected {
		t.Fatal("report slice not detached")
	}
	for ph, v := range fresh.Candidates[0].Breakdown {
		if v < 0 {
			t.Fatalf("report breakdown aliased: %s = %v", ph, v)
		}
	}
}

// TestUnknownExecModeRejected pins that ExecSequential is the only
// DistOpts.Exec either entry point accepts: every other value, 1 (the
// deleted overlap executor's) included, is an error from Distribute (named
// and AlgorithmAuto) and from Estimate.
func TestUnknownExecModeRejected(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{1, 2, 255} {
		for _, algo := range []Algorithm{SparsityAware1D, AlgorithmAuto} {
			if _, err := cluster.Distribute(ds, DistOpts{Algorithm: algo, Exec: mode}); err == nil {
				t.Errorf("%s: Distribute accepted ExecMode(%d)", algo, mode)
			}
		}
		if _, err := cluster.Estimate(ds, DistOpts{Exec: mode}); err == nil {
			t.Errorf("Estimate accepted ExecMode(%d)", mode)
		}
	}
	if _, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Exec: ExecSequential}); err != nil {
		t.Error(err)
	}
	if _, err := cluster.Estimate(ds, DistOpts{Exec: ExecSequential}); err != nil {
		t.Error(err)
	}
}
