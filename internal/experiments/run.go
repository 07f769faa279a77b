// Package experiments reproduces the paper's evaluation: Table 2 and
// Figures 3–7, plus the ablations DESIGN.md calls out. Each experiment is a
// pure function from a configuration to structured rows/series, printed by
// cmd/gnnbench. The figures are priced, not trained: every point is
// sagnn.NewCluster → Distribute → DistGraph.PriceEpoch, the modeled epoch a
// Session.Run would charge, so a figure at P = 256 costs the memory of its
// compiled plans rather than of a simulated training epoch. Cost estimates
// are Cluster.Estimate. Both are clients of the public API, so a bad
// configuration is the API's error, not a panic.
package experiments

import (
	"fmt"
	"sync"

	"sagnn"
	"sagnn/internal/gen"
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

// RunConfig describes one priced configuration.
type RunConfig struct {
	Dataset  gen.Preset
	ScaleDiv int // divide preset size by this power-of-two factor (1 = full)
	P        int // total processes (GPUs in the paper)
	C        int // replication factor; 1 selects the 1D algorithms
	Scheme   Scheme
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

// RunResult is one priced configuration: the modeled epoch and set-up
// times, phase breakdown and per-process volumes of full-batch training.
type RunResult struct {
	Config RunConfig
	sagnn.EpochPrice
}

// ImbalancePct is the send-volume imbalance (max/avg − 1)·100. Broadcast
// roots are charged their payload once, so cross-scheme wire-volume
// comparisons should use TotalRecvMB instead.
func (r RunResult) ImbalancePct() float64 {
	if r.AvgSentMB <= 0 {
		return 0
	}
	return (r.MaxSentMB/r.AvgSentMB - 1) * 100
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

// Run prices one configuration through the public pipeline — load data,
// NewCluster, Distribute (partition + engine), PriceEpoch — without training
// it. Unknown presets and infeasible process grids are returned as the API's
// errors.
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
	price, err := dg.PriceEpoch(sagnn.ModelConfig{Hidden: cfg.Hidden, Layers: cfg.Layers})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Config: cfg, EpochPrice: *price}, nil
}
