package sagnn

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Each benchmark prints the same rows/series the paper
// reports and also exports headline numbers as benchmark metrics.
//
// Scale: datasets default to 1/4 of their preset size so the full harness
// completes in minutes on a laptop; set SAGNN_SCALEDIV=1 for the full
// preset sizes (the shapes are stable across scales — see EXPERIMENTS.md).
// Process counts mirror the paper: up to 256 simulated GPUs.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/experiments"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// benchScale returns the dataset scale divisor for benchmarks.
func benchScale() int {
	if s := os.Getenv("SAGNN_SCALEDIV"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return 4
}

const benchSeed = 42

// BenchmarkTable2 reproduces Table 2: average and maximum per-process data
// in one SpMM under METIS partitioning (Amazon, f=300) and the resulting
// communication load imbalance.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchScale(), []int{16, 32, 64, 128, 256}, benchSeed)
		if i == 0 {
			experiments.PrintTable2(os.Stdout, rows)
			b.ReportMetric(rows[len(rows)-1].ImbalancePct, "imbalance-%@p256")
		}
	}
}

// BenchmarkFigure3 reproduces the 1D scaling study (Figure 3): CAGNET vs SA
// vs SA+GVB epoch times across GPU counts, per dataset. Reddit uses
// p=4..64, Amazon and Protein p=4..256, as in the paper.
func BenchmarkFigure3(b *testing.B) {
	cases := []struct {
		ds gen.Preset
		ps []int
	}{
		{gen.RedditSim, []int{4, 16, 32, 64}},
		{gen.AmazonSim, []int{4, 16, 32, 64, 128, 256}},
		{gen.ProteinSim, []int{4, 16, 32, 64, 128, 256}},
	}
	for _, c := range cases {
		b.Run(string(c.ds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				series := experiments.Figure3(c.ds, benchScale(), c.ps, benchSeed)
				if i == 0 {
					experiments.PrintSeries(os.Stdout, fmt.Sprintf("Figure 3 (%s)", c.ds), series)
					reportSpeedup(b, series)
				}
			}
		})
	}
}

// reportSpeedup exports SA+GVB's speedup over CAGNET at the largest p.
func reportSpeedup(b *testing.B, series []experiments.Series) {
	var cagnet, gvb float64
	for _, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		switch s.Scheme {
		case experiments.SchemeCAGNET:
			cagnet = last.EpochSec
		case experiments.SchemeSAGVB:
			gvb = last.EpochSec
		}
	}
	if gvb > 0 {
		b.ReportMetric(cagnet/gvb, "speedup-vs-CAGNET@maxP")
	}
}

// BenchmarkFigure4 reproduces the 1D time breakdown (Figure 4): local
// computation vs alltoall vs bcast for each scheme. It reuses the Figure 3
// measurement plan (the paper's Figure 4 is the breakdown of Figure 3).
func BenchmarkFigure4(b *testing.B) {
	for _, ds := range []gen.Preset{gen.RedditSim, gen.AmazonSim} {
		b.Run(string(ds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				series := experiments.Figure3(ds, benchScale(), []int{16, 64}, benchSeed)
				if i == 0 {
					experiments.PrintBreakdown(os.Stdout, fmt.Sprintf("Figure 4 (%s)", ds),
						experiments.FlattenSeries(series))
				}
			}
		})
	}
}

// BenchmarkFigure5 reproduces the Papers experiment (Figure 5): all three
// 1D schemes at p=16 with the per-phase breakdown; the paper reports a
// ≈2.3× SA+GVB improvement.
func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(benchScale(), 16, benchSeed)
		if i == 0 {
			experiments.PrintBreakdown(os.Stdout, "Figure 5 (papers-sim, p=16)", res)
			var cagnet, gvb float64
			for _, r := range res {
				switch r.Config.Scheme {
				case experiments.SchemeCAGNET:
					cagnet = r.EpochSec
				case experiments.SchemeSAGVB:
					gvb = r.EpochSec
				}
			}
			if gvb > 0 {
				b.ReportMetric(cagnet/gvb, "speedup-vs-CAGNET")
			}
		}
	}
}

// BenchmarkFigure6 reproduces the partitioner comparison (Figure 6):
// SA+GVB vs SA+METIS on Amazon and Protein for p=4..64.
func BenchmarkFigure6(b *testing.B) {
	for _, ds := range []gen.Preset{gen.AmazonSim, gen.ProteinSim} {
		b.Run(string(ds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				series := experiments.Figure6(ds, benchScale(), []int{4, 16, 32, 64}, benchSeed)
				if i == 0 {
					experiments.PrintSeries(os.Stdout, fmt.Sprintf("Figure 6 (%s)", ds), series)
				}
			}
		})
	}
}

// BenchmarkFigure7 reproduces the 1.5D study (Figure 7): oblivious vs SA vs
// SA+GVB at replication factors c=2,4 on Amazon and Protein.
func BenchmarkFigure7(b *testing.B) {
	for _, ds := range []gen.Preset{gen.AmazonSim, gen.ProteinSim} {
		b.Run(string(ds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				series := experiments.Figure7(ds, benchScale(), []int{16, 32, 64, 128, 256}, []int{2, 4}, benchSeed)
				if i == 0 {
					experiments.PrintSeries(os.Stdout, fmt.Sprintf("Figure 7 (%s)", ds), series)
				}
			}
		})
	}
}

// BenchmarkAblationGVBVolumePhase quantifies the design choice behind GVB:
// how much the max-send-volume refinement phase improves the bottleneck
// metric over the identical pipeline without it.
func BenchmarkAblationGVBVolumePhase(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationGVBVolumePhase(gen.AmazonSim, benchScale(), 64, benchSeed)
		if i == 0 {
			fmt.Println("Ablation: GVB volume-refinement phase (amazon-sim, k=64)")
			for _, r := range rows {
				fmt.Printf("  %s\n", r.Quality)
			}
			var with, without float64
			for _, r := range rows {
				switch r.Variant {
				case "gvb":
					with = float64(r.Quality.MaxSendRows)
				case "gvb-novol":
					without = float64(r.Quality.MaxSendRows)
				}
			}
			if with > 0 {
				b.ReportMetric(without/with, "maxsend-reduction")
			}
		}
	}
}

// BenchmarkAblationReplication sweeps the 1.5D replication factor at fixed
// P, exposing the broadcast-vs-allreduce tradeoff of Section 7.2.
func BenchmarkAblationReplication(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationReplication(gen.ProteinSim, benchScale(), 64, []int{1, 2, 4, 8}, benchSeed)
		if i == 0 {
			experiments.PrintBreakdown(os.Stdout, "Ablation: replication factor sweep (protein-sim, p=64)", res)
		}
	}
}

// BenchmarkSerialEpoch measures the real (wall-clock) cost of one serial
// training epoch — the raw compute substrate, independent of the machine
// model.
func BenchmarkSerialEpoch(b *testing.B) {
	ds := MustLoadDataset(RedditSim, benchSeed, benchScale()*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSerial(ds, 1, ModelConfig{Hidden: 16, Layers: 3, LR: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialEpochSteadyState measures the marginal cost of one more
// epoch on an already-constructed serial trainer: dataset load, model init,
// and first-epoch workspace growth all sit outside the timer, so allocs/op
// reports the steady-state allocation footprint of the training loop.
func BenchmarkSerialEpochSteadyState(b *testing.B) {
	ds := MustLoadDataset(RedditSim, benchSeed, benchScale()*4)
	aHat := ds.G.NormalizedAdjacency()
	dims := gcn.LayerDims(ds.FeatureDim(), 16, ds.Classes, 3)
	s := gcn.NewSerial(aHat, ds.Features, ds.Labels, ds.Train, gcn.NewModel(1, dims), 0.05)
	s.Epoch() // warm up any lazily-built workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Epoch()
	}
}

// sparseCSR keeps the benchmark table below readable.
type sparseCSR = sparse.CSR

func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(benchSeed)) }

// benchMultiply runs one rank's share of a collective Multiply into a
// caller-owned output block via the allocation-free path.
func benchMultiply(e distmm.Engine, r *comm.Rank, local, out *dense.Matrix) {
	e.MultiplyInto(r, local, out)
}

// benchWorld builds a small distributed fixture shared by the steady-state
// microbenchmarks: a banded protein-like graph on p simulated ranks.
func benchWorld(b *testing.B, p int) (*comm.World, *gen.Dataset) {
	b.Helper()
	ds := MustLoadDataset(ProteinSim, benchSeed, 16)
	return comm.NewWorld(p, machine.Perlmutter()), ds
}

// BenchmarkMultiplyPerEngine measures one collective distributed SpMM
// (Engine.Multiply across all ranks) for each of the four engines, with the
// engine setup excluded. allocs/op is the headline: steady-state Multiply
// should not allocate per call beyond the fixed per-Run goroutine cost.
func BenchmarkMultiplyPerEngine(b *testing.B) {
	const p, f = 8, 64
	cases := []struct {
		name string
		make func(w *comm.World, a *sparseCSR) distmm.Engine
	}{
		{"oblivious-1d", func(w *comm.World, a *sparseCSR) distmm.Engine {
			return distmm.NewOblivious1D(w, a, distmm.UniformLayout(a.NumRows, p))
		}},
		{"sparsity-aware-1d", func(w *comm.World, a *sparseCSR) distmm.Engine {
			return distmm.NewSparsityAware1D(w, a, distmm.UniformLayout(a.NumRows, p))
		}},
		{"oblivious-1.5d", func(w *comm.World, a *sparseCSR) distmm.Engine {
			return distmm.NewOblivious15D(w, a, 2, distmm.UniformLayout(a.NumRows, p/2))
		}},
		{"sparsity-aware-1.5d", func(w *comm.World, a *sparseCSR) distmm.Engine {
			return distmm.NewSparsityAware15D(w, a, 2, distmm.UniformLayout(a.NumRows, p/2))
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w, ds := benchWorld(b, p)
			a := ds.G.NormalizedAdjacency()
			e := c.make(w, a)
			lay := e.Layout()
			h := dense.NewRandom(newBenchRand(), a.NumRows, f, 1.0)
			locals := make([]*dense.Matrix, p)
			outs := make([]*dense.Matrix, p)
			for rank := 0; rank < p; rank++ {
				blk := e.BlockOf(rank)
				lo, hi := lay.Range(blk)
				locals[rank] = h.SliceRows(lo, hi).Clone()
				outs[rank] = dense.New(hi-lo, f)
			}
			// Warm up per-rank workspaces so they are sized before timing.
			w.Run(func(r *comm.Rank) { benchMultiply(e, r, locals[r.ID], outs[r.ID]) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(func(r *comm.Rank) { benchMultiply(e, r, locals[r.ID], outs[r.ID]) })
			}
		})
	}
}

// BenchmarkDistEpochSteadyState measures per-epoch cost of the distributed
// trainer with world + engine setup excluded. StepNCtx(ctx, b.N) runs b.N
// epochs inside one collective launch, so allocs/op amortises the one-time
// model/workspace construction and reports the steady-state epoch footprint.
func BenchmarkDistEpochSteadyState(b *testing.B) {
	const p = 8
	w, ds := benchWorld(b, p)
	aHat := ds.G.NormalizedAdjacency()
	e := distmm.NewSparsityAware1D(w, aHat, distmm.UniformLayout(aHat.NumRows, p))
	dims := gcn.LayerDims(ds.FeatureDim(), 16, ds.Classes, 3)
	trainer := gcn.NewDistributed(w, e, ds.Features, ds.Labels, ds.Train, dims, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := trainer.Stepper().StepNCtx(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSessionRecoveryOverhead prices failure-awareness in steady
// state: epochs/s of a 4-rank training session with auto-snapshot off vs a
// cadence of every 4 / 2 / 1 epochs, plus a run that absorbs one injected
// comm fault per Run and auto-resumes from its last snapshot (the rollback
// + replay tax). Backs the EXPERIMENTS fault-tolerance table.
func BenchmarkSessionRecoveryOverhead(b *testing.B) {
	ds := MustLoadDataset(ProteinSim, benchSeed, 4*benchScale())
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
