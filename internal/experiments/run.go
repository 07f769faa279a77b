// Package experiments reproduces the paper's evaluation: Table 2 and
// Figures 3–7, plus the ablations DESIGN.md calls out. Each experiment is a
// pure function from a configuration to structured rows/series, so the CLI
// (cmd/gnnbench) and the benchmark harness (bench_test.go) share one
// implementation.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/minibatch"
	"sagnn/internal/opt"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// Scheme names a training configuration from the paper's legend.
type Scheme string

// The schemes compared throughout Section 7.
const (
	// SchemeCAGNET is the sparsity-oblivious baseline (broadcast whole
	// blocks), under the default block distribution.
	SchemeCAGNET Scheme = "CAGNET"
	// SchemeSA is sparsity-aware communication without a partitioner.
	SchemeSA Scheme = "SA"
	// SchemeSAMetis is sparsity-aware + the edgecut-only partitioner.
	SchemeSAMetis Scheme = "SA+METIS"
	// SchemeSAGVB is sparsity-aware + the volume-balancing partitioner.
	SchemeSAGVB Scheme = "SA+GVB"
)

// RunConfig describes one training measurement.
type RunConfig struct {
	Dataset  gen.Preset
	ScaleDiv int // divide preset size by this power-of-two factor (1 = full)
	P        int // total processes (GPUs in the paper)
	C        int // replication factor; 1 selects the 1D algorithms
	Scheme   Scheme
	Epochs   int // epochs to simulate (timings are reported per epoch)
	Hidden   int
	Layers   int
	Seed     int64
}

func (c RunConfig) withDefaults() RunConfig {
	if c.ScaleDiv == 0 {
		c.ScaleDiv = 1
	}
	if c.C == 0 {
		c.C = 1
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// RunResult is one measured configuration.
type RunResult struct {
	Config RunConfig
	// EpochSec is the modeled bulk-synchronous epoch time.
	EpochSec float64
	// Breakdown maps phase ("bcast", "alltoall", "allreduce", "local") to
	// modeled seconds per epoch — the paper's Figure 4/5 bars.
	Breakdown map[string]float64
	// AvgSentMB / MaxSentMB are exact measured per-process send volumes per
	// epoch; ImbalancePct = (max/avg − 1)·100. Broadcast roots are charged
	// their payload once (collectives forward data inside the network), so
	// cross-scheme wire-volume comparisons should use the receive side.
	AvgSentMB    float64
	MaxSentMB    float64
	ImbalancePct float64
	// TotalRecvMB is the total bytes delivered to all processes per epoch —
	// the scheme-comparable wire volume.
	TotalRecvMB float64
	// FinalLoss verifies the run trained (identical across schemes up to
	// floating-point reassociation).
	FinalLoss float64
	// TestAcc is the trained model's full-batch accuracy on the held-out
	// test split — the figure the full-batch vs sampled comparison needs.
	TestAcc float64
	// Quality is the partition quality if a partitioner was used.
	Quality *partition.Quality
}

var (
	dsCacheMu sync.Mutex
	dsCache   = map[string]*gen.Dataset{}
)

// loadDataset memoises gen.Load across experiment sweeps.
func loadDataset(p gen.Preset, seed int64, scaleDiv int) *gen.Dataset {
	key := fmt.Sprintf("%s/%d/%d", p, seed, scaleDiv)
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d
	}
	d := gen.MustLoad(p, seed, scaleDiv)
	dsCache[key] = d
	return d
}

// partitionerFor maps a scheme to its partitioner (nil = plain block
// distribution).
func partitionerFor(s Scheme, seed int64) partition.Partitioner {
	switch s {
	case SchemeCAGNET, SchemeSA:
		return nil
	case SchemeSAMetis:
		return partition.MetisLike{Seed: seed}
	case SchemeSAGVB:
		return partition.GVB{Seed: seed}
	default:
		panic(fmt.Sprintf("experiments: unknown scheme %q", s))
	}
}

// runData is a dataset staged for one measurement: (optionally) permuted
// adjacency, relabeled features/labels/splits, and the block layout — the
// preparation Run and RunSampled share.
type runData struct {
	ds          *gen.Dataset
	aHat        *sparse.CSR
	x           *dense.Matrix
	labels      []int
	train, test []int
	layout      distmm.Layout
	quality     *partition.Quality
}

// prepareRun stages cfg's dataset for a k-block distribution.
func prepareRun(cfg RunConfig, k int) runData {
	ds := loadDataset(cfg.Dataset, cfg.Seed, cfg.ScaleDiv)
	d := runData{
		ds:     ds,
		aHat:   ds.G.NormalizedAdjacency(),
		x:      ds.Features,
		labels: ds.Labels,
		train:  ds.Train,
		test:   ds.Test,
	}
	if pt := partitionerFor(cfg.Scheme, cfg.Seed); pt != nil {
		part := pt.Partition(ds.G, k)
		q := partition.Evaluate(pt.Name(), ds.G, part)
		d.quality = &q
		perm := part.Perm()
		d.aHat = d.aHat.PermuteSymmetric(perm)
		var sets [][]int
		d.x, d.labels, sets = gcn.ApplyPerm(perm, d.x, d.labels, d.train, d.test)
		d.train, d.test = sets[0], sets[1]
		d.layout = distmm.LayoutFromOffsets(part.Offsets())
	} else {
		d.layout = distmm.UniformLayout(ds.G.NumVertices(), k)
	}
	return d
}

// finishRun converts a world's ledger and counters into per-epoch figures
// and evaluates the trained model full-batch on the test split.
func finishRun(cfg RunConfig, d runData, world *comm.World, results []gcn.EpochResult, model *gcn.Model) RunResult {
	epochs := float64(cfg.Epochs)
	per := world.Ledger.Snapshot().Scale(1 / epochs)
	res := RunResult{
		Config:    cfg,
		EpochSec:  per.Total(),
		Breakdown: per.Breakdown(),
		FinalLoss: results[len(results)-1].Loss,
		Quality:   d.quality,
	}
	const mb = 1e6
	vol := world.Stats().Snapshot()
	res.AvgSentMB = vol.AvgSent() / epochs / mb
	res.MaxSentMB = float64(vol.MaxSent()) / epochs / mb
	res.TotalRecvMB = float64(vol.TotalRecv()) / epochs / mb
	if res.AvgSentMB > 0 {
		res.ImbalancePct = (res.MaxSentMB/res.AvgSentMB - 1) * 100
	}
	res.TestAcc = gcn.NewSerial(d.aHat, d.x, d.labels, d.train, model, 0.05).Accuracies(d.test)[0]
	return res
}

// Run executes one configuration end to end: load data, partition, build
// the world and engine, train, and convert the ledger into per-epoch
// figures.
func Run(cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	d := prepareRun(cfg, cfg.P/cfg.C)

	world := comm.NewWorld(cfg.P, machine.Perlmutter())
	var engine distmm.Engine
	switch {
	case cfg.Scheme == SchemeCAGNET && cfg.C == 1:
		engine = distmm.NewOblivious1D(world, d.aHat, d.layout)
	case cfg.Scheme == SchemeCAGNET:
		engine = distmm.NewOblivious15D(world, d.aHat, cfg.C, d.layout)
	case cfg.C == 1:
		engine = distmm.NewSparsityAware1D(world, d.aHat, d.layout)
	default:
		engine = distmm.NewSparsityAware15D(world, d.aHat, cfg.C, d.layout)
	}

	dims := gcn.LayerDims(d.x.Cols, cfg.Hidden, d.ds.Classes, cfg.Layers)
	trainer := gcn.NewDistributed(world, engine, d.x, d.labels, d.train, dims, 0.05, cfg.Seed)
	st := trainer.Stepper()
	results, err := st.StepNCtx(context.Background(), cfg.Epochs)
	if err != nil {
		panic(fmt.Sprintf("experiments: full-batch run failed: %v", err))
	}
	return finishRun(cfg, d, world, results, st.Model())
}

// SampledRunConfig extends a RunConfig with neighbor-sampling parameters
// for RunSampled.
type SampledRunConfig struct {
	RunConfig
	Fanout    int // sampled neighbors per vertex per layer (default 5)
	BatchSize int // per-rank batch size (default 256)
}

func (c SampledRunConfig) withDefaults() SampledRunConfig {
	c.RunConfig = c.RunConfig.withDefaults()
	if c.Fanout == 0 {
		c.Fanout = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	return c
}

// RunSampled executes one neighbor-sampled mini-batch training measurement
// over the same staging pipeline as Run: per-rank GraphSAGE sampling with
// each batch's halo exchange compiled into a Plan. Requires C == 1 (the
// sampled gather is a 1D exchange). The reported figures are per-epoch like
// Run's, so the two are directly comparable — the full-batch vs sampled
// table in EXPERIMENTS.md.
func RunSampled(cfg SampledRunConfig) RunResult {
	cfg = cfg.withDefaults()
	if cfg.C != 1 {
		panic(fmt.Sprintf("experiments: sampled training needs C=1, got %d", cfg.C))
	}
	d := prepareRun(cfg.RunConfig, cfg.P)

	world := comm.NewWorld(cfg.P, machine.Perlmutter())
	dims := gcn.LayerDims(d.x.Cols, cfg.Hidden, d.ds.Classes, cfg.Layers)
	dist := minibatch.NewDist(world, d.layout, d.aHat, d.x, d.labels, d.train, dims,
		cfg.Seed, func() opt.Optimizer { return &opt.SGD{LR: 0.05} },
		minibatch.DistConfig{Fanout: cfg.Fanout, BatchSize: cfg.BatchSize, Seed: cfg.Seed})
	st := dist.Stepper()
	results, err := st.StepNCtx(context.Background(), cfg.Epochs)
	if err != nil {
		panic(fmt.Sprintf("experiments: sampled run failed: %v", err))
	}
	return finishRun(cfg.RunConfig, d, world, results, st.Model())
}
