// Package experiments reproduces the paper's evaluation: Table 2 and
// Figures 3–7, plus the ablations DESIGN.md calls out. Each experiment is a
// pure function from a configuration to structured rows/series, printed by
// cmd/gnnbench. Training measurements and cost estimates are clients of the
// public API (sagnn.NewCluster → Distribute → NewSession → Run, and
// Cluster.Estimate), so a regenerated figure is exactly what a library user
// would measure, and a bad configuration is the API's error, not a panic.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"sagnn"
	"sagnn/internal/gen"
	"sagnn/internal/partition"
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
	// EpochSec is the modeled bulk-synchronous epoch time; SetupSec the
	// modeled time of the one-time Â·X multiply the run paid ahead of its
	// first epoch (the feature-width layer the paper times inside every
	// epoch).
	EpochSec float64
	SetupSec float64
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
	// test split.
	TestAcc float64
	// Quality is the partition quality if a partitioner was used.
	Quality *partition.Quality
}

var (
	dsCacheMu sync.Mutex
	dsCache   = map[string]*gen.Dataset{}
)

// loadDataset memoises sagnn.LoadDataset across experiment sweeps.
func loadDataset(p gen.Preset, seed int64, scaleDiv int) (*gen.Dataset, error) {
	key := fmt.Sprintf("%s/%d/%d", p, seed, scaleDiv)
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	d, err := sagnn.LoadDataset(p, seed, scaleDiv)
	if err != nil {
		return nil, err
	}
	dsCache[key] = d
	return d, nil
}

// distOpts maps a scheme at replication factor c to the public API's
// (algorithm, replication, partitioner) triple: c = 1 selects the 1D
// algorithms, and a nil partitioner is the plain block distribution.
func (s Scheme) distOpts(c int, seed int64) (sagnn.DistOpts, error) {
	oneD, replicated := sagnn.SparsityAware1D, sagnn.SparsityAware15D
	var pt sagnn.Partitioner
	switch s {
	case SchemeCAGNET:
		oneD, replicated = sagnn.Oblivious1D, sagnn.Oblivious15D
	case SchemeSA:
	case SchemeSAMetis:
		pt = sagnn.NewMetis(seed)
	case SchemeSAGVB:
		pt = sagnn.NewGVB(seed)
	default:
		return sagnn.DistOpts{}, fmt.Errorf("experiments: unknown scheme %q", s)
	}
	opts := sagnn.DistOpts{Algorithm: oneD, Replication: c, Partitioner: pt}
	if c != 1 {
		opts.Algorithm = replicated
	}
	return opts, nil
}

// Run executes one configuration end to end through the public pipeline —
// load data, NewCluster, Distribute (partition + engine), NewSession, Run —
// and reports the session's per-epoch figures. Unknown presets and
// infeasible process grids are returned as the API's errors.
func Run(cfg RunConfig) (RunResult, error) {
	cfg = cfg.withDefaults()
	ds, err := loadDataset(cfg.Dataset, cfg.Seed, cfg.ScaleDiv)
	if err != nil {
		return RunResult{}, err
	}
	opts, err := cfg.Scheme.distOpts(cfg.C, cfg.Seed)
	if err != nil {
		return RunResult{}, err
	}
	cluster, err := sagnn.NewCluster(cfg.P)
	if err != nil {
		return RunResult{}, err
	}
	dg, err := cluster.Distribute(ds, opts)
	if err != nil {
		return RunResult{}, err
	}
	sess, err := dg.NewSession(sagnn.ModelConfig{Hidden: cfg.Hidden, Layers: cfg.Layers, Seed: cfg.Seed})
	if err != nil {
		return RunResult{}, err
	}
	tr, err := sess.Run(context.Background(), cfg.Epochs)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{
		Config:      cfg,
		EpochSec:    tr.EpochSeconds,
		SetupSec:    tr.SetupSeconds,
		Breakdown:   tr.Breakdown,
		AvgSentMB:   tr.AvgSentMB,
		MaxSentMB:   tr.MaxSentMB,
		TotalRecvMB: tr.TotalRecvMB,
		FinalLoss:   tr.FinalLoss,
		TestAcc:     tr.TestAcc,
		Quality:     tr.PartitionQuality,
	}
	if res.AvgSentMB > 0 {
		res.ImbalancePct = (res.MaxSentMB/res.AvgSentMB - 1) * 100
	}
	return res, nil
}
