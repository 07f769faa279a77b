package experiments

import (
	"bytes"
	"math"
	"testing"

	"sagnn"
	"sagnn/internal/gen"
)

// Tests use heavily scaled-down datasets (scaleDiv) so the full suite stays
// fast; `gnnbench -scalediv` runs the larger sizes.
const testScale = 64

// must unwraps an experiment's (value, error) pair, failing the test on error.
func must[T any](v T, err error) func(testing.TB) T {
	return func(t testing.TB) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestRunCAGNET1D(t *testing.T) {
	r := must(Run(RunConfig{Dataset: gen.AmazonSim, ScaleDiv: testScale, P: 4, Scheme: SchemeCAGNET}))(t)
	if r.EpochSec <= 0 {
		t.Fatal("no modeled time")
	}
	if _, ok := r.Breakdown["bcast"]; !ok {
		t.Fatalf("oblivious run must have bcast phase: %v", r.Breakdown)
	}
	if math.IsNaN(r.FinalLoss) || r.FinalLoss <= 0 {
		t.Fatalf("loss %v", r.FinalLoss)
	}
	if r.Quality != nil {
		t.Fatal("CAGNET should not partition")
	}
}

func TestRunSAGVB1D(t *testing.T) {
	r := must(Run(RunConfig{Dataset: gen.AmazonSim, ScaleDiv: testScale, P: 4, Scheme: SchemeSAGVB}))(t)
	if _, ok := r.Breakdown["alltoall"]; !ok {
		t.Fatalf("SA run must have alltoall phase: %v", r.Breakdown)
	}
	if r.Quality == nil || r.Quality.Partitioner != "gvb" {
		t.Fatal("missing partition quality")
	}
}

func TestRun15D(t *testing.T) {
	for _, s := range []Scheme{SchemeCAGNET, SchemeSAGVB} {
		r := must(Run(RunConfig{Dataset: gen.ProteinSim, ScaleDiv: testScale, P: 8, C: 2, Scheme: s}))(t)
		if _, ok := r.Breakdown["allreduce"]; !ok {
			t.Fatalf("%s 1.5D must have allreduce: %v", s, r.Breakdown)
		}
	}
}

func TestSchemesSameLoss(t *testing.T) {
	// All schemes compute the same mathematics; the paper verified no
	// accuracy change. Loss after one epoch must agree to fp tolerance.
	// (SA+GVB trains in a permuted vertex order, which is a similarity
	// transform — identical loss.)
	base := must(Run(RunConfig{Dataset: gen.RedditSim, ScaleDiv: testScale, P: 4, Scheme: SchemeCAGNET}))(t)
	for _, s := range []Scheme{SchemeSA, SchemeSAMetis, SchemeSAGVB} {
		r := must(Run(RunConfig{Dataset: gen.RedditSim, ScaleDiv: testScale, P: 4, Scheme: s}))(t)
		if math.Abs(r.FinalLoss-base.FinalLoss) > 1e-6 {
			t.Fatalf("%s loss %v != CAGNET %v", s, r.FinalLoss, base.FinalLoss)
		}
	}
}

func TestTable2ImbalanceGrowsWithP(t *testing.T) {
	rows := must(Table2(testScale, []int{4, 16}, 1))(t)
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	for _, r := range rows {
		if r.MaxMB < r.AvgMB {
			t.Fatalf("max %v < avg %v", r.MaxMB, r.AvgMB)
		}
		if r.ImbalancePct < 0 {
			t.Fatal("negative imbalance")
		}
	}
	// Volume per process should shrink with p
	if rows[1].AvgMB >= rows[0].AvgMB {
		t.Fatalf("avg volume should drop with p: %v vs %v", rows[0].AvgMB, rows[1].AvgMB)
	}
}

func TestFigure3ShapeSAGVBWins(t *testing.T) {
	series := must(Figure3(gen.AmazonSim, testScale, []int{8}, 1))(t)
	if len(series) != 3 {
		t.Fatal("want 3 schemes")
	}
	byScheme := map[Scheme]RunResult{}
	for _, s := range series {
		byScheme[s.Scheme] = s.Points[0]
	}
	// The headline claim: SA+GVB delivers less data than CAGNET. Wire
	// volume is compared on the receive side (broadcast roots are charged
	// their payload once).
	if byScheme[SchemeSAGVB].TotalRecvMB >= byScheme[SchemeCAGNET].TotalRecvMB {
		t.Fatalf("SA+GVB recv volume %v should be < CAGNET %v",
			byScheme[SchemeSAGVB].TotalRecvMB, byScheme[SchemeCAGNET].TotalRecvMB)
	}
	if byScheme[SchemeSAGVB].EpochSec >= byScheme[SchemeCAGNET].EpochSec {
		t.Fatalf("SA+GVB epoch %v should beat CAGNET %v",
			byScheme[SchemeSAGVB].EpochSec, byScheme[SchemeCAGNET].EpochSec)
	}
}

func TestFigure6GVBNotWorseThanMetis(t *testing.T) {
	series := must(Figure6(gen.AmazonSim, testScale, []int{8}, 1))(t)
	var metis, gvb RunResult
	for _, s := range series {
		switch s.Scheme {
		case SchemeSAMetis:
			metis = s.Points[0]
		case SchemeSAGVB:
			gvb = s.Points[0]
		}
	}
	if gvb.MaxSentMB > metis.MaxSentMB*1.05 {
		t.Fatalf("GVB max send %v should be ≤ METIS %v", gvb.MaxSentMB, metis.MaxSentMB)
	}
}

func TestFigure7GridFiltering(t *testing.T) {
	series := must(Figure7(gen.ProteinSim, testScale, []int{8, 12, 16}, []int{2}, 1))(t)
	for _, s := range series {
		for _, pt := range s.Points {
			p, c := pt.Config.P, pt.Config.C
			if p%c != 0 || (p/c)%c != 0 {
				t.Fatalf("invalid grid p=%d c=%d survived filtering", p, c)
			}
		}
	}
}

func TestFigure5Runs(t *testing.T) {
	res := must(Figure5(testScale, 4, 1))(t)
	if len(res) != 3 {
		t.Fatal("want 3 schemes")
	}
	for _, r := range res {
		if r.EpochSec <= 0 {
			t.Fatalf("%s: no time", r.Config.Scheme)
		}
	}
}

func TestAblationGVBVolumePhase(t *testing.T) {
	rows := must(AblationGVBVolumePhase(gen.AmazonSim, testScale, 8, 1))(t)
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	if byName["gvb"].Quality.MaxSendRows > byName["gvb-novol"].Quality.MaxSendRows {
		t.Fatalf("volume phase should not increase max send: %d vs %d",
			byName["gvb"].Quality.MaxSendRows, byName["gvb-novol"].Quality.MaxSendRows)
	}
	if byName["metis"].Quality.EdgeCut >= byName["random"].Quality.EdgeCut {
		t.Fatal("multilevel should beat random on edgecut")
	}
}

func TestAblationReplication(t *testing.T) {
	res := must(AblationReplication(gen.ProteinSim, testScale, 16, []int{1, 2, 4}, 1))(t)
	if len(res) != 3 {
		t.Fatalf("want 3 valid grids, got %d", len(res))
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	PrintTable2(&buf, must(Table2(testScale, []int{4}, 1))(t))
	if buf.Len() == 0 {
		t.Fatal("empty table2 output")
	}
	buf.Reset()
	series := must(Figure3(gen.RedditSim, testScale, []int{4}, 1))(t)
	PrintSeries(&buf, "fig3", series)
	PrintBreakdown(&buf, "fig4", FlattenSeries(series))
	if buf.Len() == 0 {
		t.Fatal("empty series output")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := must(Run(RunConfig{Dataset: gen.RedditSim, ScaleDiv: testScale, P: 4, Scheme: SchemeSAGVB}))(t)
	b := must(Run(RunConfig{Dataset: gen.RedditSim, ScaleDiv: testScale, P: 4, Scheme: SchemeSAGVB}))(t)
	if a.EpochSec != b.EpochSec || a.FinalLoss != b.FinalLoss {
		t.Fatal("Run not deterministic")
	}
}

func TestTable3(t *testing.T) {
	rows := must(Table3(testScale, 1))(t)
	if len(rows) != 4 {
		t.Fatalf("want 4 datasets, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Vertices == 0 || r.Edges == 0 || r.Features == 0 {
			t.Fatalf("empty row %+v", r)
		}
		if r.PaperVertices == 0 {
			t.Fatalf("missing paper reference for %s", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestEstimateTablePredictionsMatch(t *testing.T) {
	for _, mode := range []sagnn.ExecMode{sagnn.ExecSequential, sagnn.ExecOverlap} {
		rows := must(EstimateTable(gen.RedditSim, testScale, 8, 3, mode, sagnn.Perlmutter()))(t)
		// P=8: 1D ×2 and c=2 ×2 feasible; c=4 rows skipped.
		feasible := 0
		for _, r := range rows {
			if r.Skipped != "" {
				continue
			}
			feasible++
			if !r.Match {
				t.Errorf("%s: %s c=%d: predicted %d bytes per multiply, measured %d",
					mode, r.Algorithm, r.Replication, r.PredMultiplyBytes, r.MeasMultiplyBytes)
			}
			if !r.TimeMatch {
				t.Errorf("%s: %s c=%d: predicted %g s per multiply, measured %g",
					mode, r.Algorithm, r.Replication, r.SetupSeconds, r.MeasMultSec)
			}
			if r.EpochSeconds <= 0 || r.MaxSentMB <= 0 || r.Sites <= 0 {
				t.Errorf("unpriced feasible row %+v", r)
			}
			if r.OverlapSeconds <= 0 || r.OverlapSeconds > r.EpochSeconds*(1+1e-12) || r.Speedup() < 1-1e-12 {
				t.Errorf("%s c=%d: overlap pricing %g must be positive and ≤ sequential %g",
					r.Algorithm, r.Replication, r.OverlapSeconds, r.EpochSeconds)
			}
		}
		if feasible != 4 || len(rows) != 6 {
			t.Fatalf("expected 4 feasible of 6 candidates at P=8, got %d of %d", feasible, len(rows))
		}
		var buf bytes.Buffer
		PrintEstimateTable(&buf, "estimate", rows)
		if buf.Len() == 0 {
			t.Fatal("empty output")
		}

		// At P=16 every candidate is feasible, c=4 included.
		for _, r := range must(EstimateTable(gen.RedditSim, testScale, 16, 3, mode, sagnn.Perlmutter()))(t) {
			if r.Skipped != "" || !r.Match || !r.TimeMatch {
				t.Errorf("%s: P=16 %s c=%d (%s): bytes %d vs %d, time %g vs %g", mode, r.Algorithm, r.Replication, r.Skipped,
					r.PredMultiplyBytes, r.MeasMultiplyBytes, r.SetupSeconds, r.MeasMultSec)
			}
		}
	}
}

// TestBadConfigsReturnErrors pins the port's error surface: configurations
// the public API rejects come back as its errors — gnnbench prints them and
// exits 2 — instead of panicking inside a dataset loader or engine
// constructor.
func TestBadConfigsReturnErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"unknown preset", RunConfig{Dataset: "bogus", ScaleDiv: testScale, P: 4, Scheme: SchemeSA}},
		{"c does not divide P", RunConfig{Dataset: gen.ProteinSim, ScaleDiv: testScale, P: 6, C: 4, Scheme: SchemeSAGVB}},
		{"c² does not divide P", RunConfig{Dataset: gen.ProteinSim, ScaleDiv: testScale, P: 8, C: 4, Scheme: SchemeCAGNET}},
		{"unknown scheme", RunConfig{Dataset: gen.ProteinSim, ScaleDiv: testScale, P: 4, Scheme: "SA+MAGIC"}},
		{"no processes", RunConfig{Dataset: gen.ProteinSim, ScaleDiv: testScale, Scheme: SchemeSA}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil {
				t.Fatalf("Run(%+v) succeeded", tc.cfg)
			}
		})
	}
	if _, err := EstimateTable("bogus", testScale, 8, 1, sagnn.ExecSequential, sagnn.Perlmutter()); err == nil {
		t.Fatal("EstimateTable accepted an unknown preset")
	}
	if _, err := EstimateTable(gen.RedditSim, testScale, 0, 1, sagnn.ExecSequential, sagnn.Perlmutter()); err == nil {
		t.Fatal("EstimateTable accepted P=0")
	}
	if _, err := Figure3("bogus", testScale, []int{4}, 1); err == nil {
		t.Fatal("Figure3 accepted an unknown preset")
	}
}
