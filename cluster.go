package sagnn

import (
	"fmt"
	"sync"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/machine"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// MachineParams is the α–β machine model (link latency/bandwidth and
// effective compute rates) that a cluster charges modeled time against.
// Perlmutter() is the paper's machine and the default.
type MachineParams = machine.Params

// Perlmutter returns the paper's machine model (A100 + Slingshot).
func Perlmutter() MachineParams { return machine.Perlmutter() }

// ClusterOption customises NewCluster.
type ClusterOption func(*clusterOptions)

type clusterOptions struct {
	params MachineParams
}

// WithMachine selects the machine model the cluster charges modeled
// communication and compute time against. Defaults to Perlmutter().
func WithMachine(p MachineParams) ClusterOption {
	return func(o *clusterOptions) { o.params = p }
}

// Cluster owns the simulated communication world and machine model for a
// fixed process count. It is the build-once root of the composable API:
//
//	cluster → Distribute (partition + engine, reusable) → NewSession
//	(steppable training) → Predictor (serving).
//
// A cluster can host any number of distributed graphs and sessions.
// Communication time and volume accumulate in ledgers shared cluster-wide;
// sessions measure their own traffic step by step under the cluster's step
// lock, so per-run figures stay correct — with no ledger resets — even when
// several sessions (on the same or different DistGraphs) interleave runs.
type Cluster struct {
	p     int
	world *comm.World

	// mu serializes collective training steps (and reads of live session
	// models) across everything built on this cluster: engines' per-rank
	// workspaces are shared per DistGraph, and per-step ledger attribution
	// requires that exactly one session is mid-step at a time.
	mu sync.Mutex
}

// NewCluster creates a simulated cluster of p processes (GPUs in the
// paper's terms).
func NewCluster(p int, opts ...ClusterOption) (*Cluster, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sagnn: cluster needs at least 1 process, got %d", p)
	}
	o := clusterOptions{params: machine.Perlmutter()}
	for _, opt := range opts {
		opt(&o)
	}
	return &Cluster{p: p, world: comm.NewWorld(p, o.params)}, nil
}

// NewTCPCluster creates a cluster whose communicator is the real multi-
// process TCP transport: one OS process per rank, this process hosting rank
// self. peers is the static peer list — peers[i] is rank i's listen address
// (e.g. "127.0.0.1:9000") — shared verbatim by every process; len(peers) is
// the cluster size. The constructor blocks until the full connection mesh is
// up (processes may start in any order; rendezvous is bounded by a timeout)
// and returns an error if any peer never appears.
//
// Every process must execute the same collective calls in the same order
// (Distribute, session steps, Calibrate, Estimate sweeps are deterministic,
// so running the same program in each process satisfies this). Setup —
// partitioning, plan compilation — is deterministic local computation, so
// each process independently compiles the identical schedule. A killed or
// hung peer surfaces as a *RankError (cause comm.ErrPeerDisconnected) on
// every survivor. Call Close when done.
func NewTCPCluster(self int, peers []string, opts ...ClusterOption) (*Cluster, error) {
	o := clusterOptions{params: machine.Perlmutter()}
	for _, opt := range opts {
		opt(&o)
	}
	w, err := comm.NewWorldTCP(self, peers, o.params)
	if err != nil {
		return nil, err
	}
	return &Cluster{p: len(peers), world: w}, nil
}

// Processes returns the cluster's process count.
func (c *Cluster) Processes() int { return c.p }

// Transport returns the communication backend name: "sim" for the in-process
// simulated communicator (NewCluster), "tcp" for the multi-process transport
// (NewTCPCluster).
func (c *Cluster) Transport() string { return c.world.Transport() }

// LocalRank returns the lowest rank hosted by this process: 0 for a
// simulated cluster (which hosts every rank), this process's own rank for
// TCP. Gate "print once" logic on LocalRank() == 0 so it stays correct
// across transports.
func (c *Cluster) LocalRank() int { return c.world.LocalRank() }

// Close shuts the transport down (closing the TCP connection mesh after an
// orderly goodbye); a no-op for simulated clusters.
func (c *Cluster) Close() error { return c.world.Close() }

// Calibration is the fitted α–β result of Cluster.Calibrate: the measured
// postal parameters plus the full machine parameters with them applied.
type Calibration struct {
	// Alpha is the fitted per-message latency in seconds; Beta the fitted
	// inverse bandwidth in seconds per logical byte.
	Alpha, Beta float64
	// Params is the cluster's machine model with Alpha/Beta replaced by the
	// fitted values — pass to Estimate or WithMachine to drive decisions
	// with measured constants.
	Params MachineParams
}

// Calibrate runs the ping-pong latency/bandwidth sweep between ranks 0 and 1
// and fits α and β from the measured transfers by least squares. On a
// simulated cluster the measurements are exact modeled charges, so the fit
// recovers the configured machine parameters (the golden test of the
// procedure); on a TCP cluster they are wall-clock measurements of the real
// links, and the fitted parameters let AlgorithmAuto and Estimate select
// against actual hardware. Collective on TCP: every process must call it at
// the same point. Needs at least 2 processes.
func (c *Cluster) Calibrate() (Calibration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cal, err := comm.Calibrate(c.world, comm.DefaultCalibrationSizes(), 0)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{Alpha: cal.Alpha, Beta: cal.Beta, Params: cal.Apply(c.world.Params)}, nil
}

// ErrInjectedFault is the cause reported by faults armed without an explicit
// error (InjectFault with a nil cause). Re-exported from the internal comm
// package so external callers can errors.Is against it.
var ErrInjectedFault = comm.ErrInjectedFault

// ErrEmptyTrainSet is returned by Session.Run, Session.RunSampled, RunSerial
// and RunMiniBatch on a dataset with no training vertices: there is nothing
// to average, so no loss exists.
var ErrEmptyTrainSet = gcn.ErrEmptyTrainSet

// RankError is the typed per-rank failure a faulted or aborted collective
// surfaces from Session.Run and friends: which rank failed, at which
// communication op, and the underlying cause (errors.As-able, Unwrap-able).
type RankError = comm.RankError

// InjectFault arms a one-shot communication fault on the cluster: the given
// rank (-1 for any rank) fails at its afterOps-th communication operation of
// the next collective launch, aborting the whole collective. A nil cause
// reports comm.ErrInjectedFault. This is the chaos-testing hook behind the
// recovery options of Session.Run.
func (c *Cluster) InjectFault(rank int, afterOps int64, cause error) {
	c.world.InjectFault(comm.Fault{Rank: rank, AfterOps: afterOps, Err: cause})
}

// SlowRank degrades (factor > 1) or heals (factor == 1) one rank's links:
// modeled communication seconds charged to that rank are multiplied by
// factor. Traffic volumes are unaffected.
func (c *Cluster) SlowRank(rank int, factor float64) { c.world.SlowRank(rank, factor) }

// ClearFaults disarms every pending injected fault and heals all slow links.
func (c *Cluster) ClearFaults() { c.world.ClearFaults() }

// DistOpts configures how a dataset is distributed across a cluster.
type DistOpts struct {
	// Algorithm selects the distributed SpMM engine. Required.
	// AlgorithmAuto compiles candidate plans and picks the minimum
	// modeled-cost one (see DistGraph.Report for the decision table).
	Algorithm Algorithm
	// Replication is the 1.5D replication factor c (default 1, which the
	// 1D algorithms require). Must satisfy c | P and c² | P. Leave unset
	// with AlgorithmAuto, which selects c itself.
	Replication int
	// Partitioner, if non-nil, reorders the graph before distribution and
	// records the resulting partition quality on the DistGraph. Under
	// AlgorithmAuto it runs once per distinct block count the candidates
	// need.
	Partitioner Partitioner
	// CostModel shapes the training epoch that AlgorithmAuto and
	// Cluster.Estimate price: the modeled epoch is the sequence of
	// distributed SpMMs a GCN of this configuration performs. The zero
	// value selects the ModelConfig defaults (3 layers, 16 hidden).
	CostModel ModelConfig
	// Exec selects the plan executor: ExecSequential (the zero value) runs
	// stage by stage; ExecOverlap pipelines each stage's SpMM against the
	// next stage's communication with bit-identical results. AlgorithmAuto
	// selects the minimum modeled epoch cost under this mode, and the
	// candidate tables price both modes so the decision is auditable. Any
	// other value is an error from Distribute and Estimate.
	Exec ExecMode
	// Sampling, if non-nil, configures neighbor-sampled mini-batch training
	// for sessions on this graph: Session.RunSampled draws per-rank
	// GraphSAGE-style batches with these parameters and compiles each
	// batch's halo exchange into a Plan instruction stream. Zero fields take
	// the defaults documented on SamplingConfig; negative ones are an error
	// from Distribute, which copies the struct — later changes to it do not
	// reach the graph's sessions. Full-batch training (Session.Run) is
	// unaffected.
	Sampling *SamplingConfig
}

// SamplingConfig configures neighbor-sampled mini-batch training
// (DistOpts.Sampling / Session.RunSampled, and RunMiniBatch). Sampling is
// deterministic per launch: every batch's neighbor draws are seeded by
// (Seed, rank, epoch, step), so losses are bit-identical across the sim and
// TCP transports and across retries after a fault rollback.
type SamplingConfig struct {
	// Fanout is the number of sampled neighbors per vertex per layer
	// (default 5).
	Fanout int
	// BatchSize is the per-rank mini-batch size over the rank's own
	// training vertices (default 256).
	BatchSize int
	// Seed roots the sampling streams (default: the session's weight seed).
	Seed int64
}

// validate rejects negative fields: withDefaults replaces zeros only, so a
// negative value is the caller's error.
func (c SamplingConfig) validate() error {
	switch {
	case c.Fanout < 0:
		return fmt.Errorf("sagnn: SamplingConfig.Fanout %d is negative", c.Fanout)
	case c.BatchSize < 0:
		return fmt.Errorf("sagnn: SamplingConfig.BatchSize %d is negative", c.BatchSize)
	}
	return nil
}

func (c SamplingConfig) withDefaults(modelSeed int64) SamplingConfig {
	if c.Fanout == 0 {
		c.Fanout = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.Seed == 0 {
		c.Seed = modelSeed
	}
	return c
}

// validateExec rejects an ExecMode that names no executor, so the executor
// that runs and the one Report prices are always the same.
func validateExec(m ExecMode) error {
	if m != ExecSequential && m != ExecOverlap {
		return fmt.Errorf("sagnn: unknown DistOpts.Exec %v", m)
	}
	return nil
}

// DistGraph is a dataset distributed across a cluster: the permuted
// normalized adjacency, relabeled features/labels/splits, the block-row
// layout, the communication engine with its sparsity-aware schedule, and
// what depends on nothing else — the first layer's aggregate Â·X, which
// training never changes.
//
// Building a DistGraph is the expensive, amortizable step the paper
// identifies (partitioning plus NnzCols schedule construction); once built
// it can back any number of training sessions — different seeds, model
// shapes, or GNN variants — without repeating that work. Â·X is part of
// that set-up, paid lazily: the first full-batch step of any session on the
// graph computes it (one distributed SpMM at the feature width), every
// epoch of every session reads it, and a graph that only ever trains
// sampled never computes it.
type DistGraph struct {
	cluster *Cluster
	ds      *Dataset
	opts    DistOpts
	// sampling is the validated copy of opts.Sampling (zero: all defaults);
	// the seed default resolves per session.
	sampling SamplingConfig

	aHat    *sparse.CSR
	x       *dense.Matrix
	labels  []int
	train   []int
	layout  distmm.Layout
	engine  distmm.Engine
	quality *partition.Quality
	report  *Report

	// input is Â·X over engine and x, shared by every session's trainer and
	// used under cluster.mu.
	input *gcn.InputProduct
}

// prepared is a dataset staged for a k-block distribution: the (optionally
// permuted) normalized adjacency, relabeled features, labels and training
// set, the block-row layout, and the partition quality when a partitioner
// ran. The held-out splits stay in the dataset's order, where runs evaluate
// (Session.result).
type prepared struct {
	aHat    *sparse.CSR
	x       *dense.Matrix
	labels  []int
	train   []int
	layout  distmm.Layout
	quality *partition.Quality
}

// prepare stages ds for a k-block distribution, running pt (if non-nil) to
// reorder the graph. This is the partitioning half of the expensive setup;
// AlgorithmAuto caches it per distinct k across candidates.
func prepare(ds *Dataset, pt Partitioner, k int) *prepared {
	p := &prepared{
		aHat:   ds.NormalizedAdjacency(),
		x:      ds.Features,
		labels: ds.Labels,
		train:  ds.Train,
	}
	if pt != nil {
		part := pt.Partition(ds.G, k)
		q := partition.Evaluate(pt.Name(), ds.G, part)
		p.quality = &q
		perm := part.Perm()
		p.aHat = p.aHat.PermuteSymmetric(perm)
		var sets [][]int
		p.x, p.labels, sets = gcn.ApplyPerm(perm, p.x, p.labels, p.train)
		p.train = sets[0]
		p.layout = distmm.LayoutFromOffsets(part.Offsets())
	} else {
		p.layout = distmm.UniformLayout(ds.G.NumVertices(), k)
	}
	return p
}

// buildEngine compiles the plan and executor for one algorithm over
// prepared data. Algorithm consts are exactly the distmm engine
// names, so this is a thin wrapper over the name-based constructor.
func buildEngine(w *comm.World, alg Algorithm, rep int, prep *prepared) distmm.Engine {
	e, err := distmm.NewEngine(w, string(alg), rep, prep.aHat, prep.layout)
	if err != nil {
		panic(fmt.Sprintf("sagnn: buildEngine on unknown algorithm %q", alg))
	}
	return e
}

// Distribute partitions (optionally) and distributes a dataset across the
// cluster, building the communication engine once for reuse by any number
// of sessions. With Algorithm: AlgorithmAuto it compiles every candidate
// plan the process count allows, prices each with the cluster's machine
// model, and keeps the cheapest; Report exposes the decision table. Every
// plan it keeps has passed the static verifier (distmm.Verify: message
// matching, deadlock freedom, overlap soundness and layout consistency over
// every rank's instruction stream); one that fails is returned as its
// *distmm.VerifyError.
func (c *Cluster) Distribute(ds *Dataset, opts DistOpts) (*DistGraph, error) {
	if err := validateDataset(ds); err != nil {
		return nil, err
	}
	if err := validateExec(opts.Exec); err != nil {
		return nil, err
	}
	if sc := opts.Sampling; sc != nil {
		if err := sc.validate(); err != nil {
			return nil, err
		}
	}
	if opts.Algorithm == AlgorithmAuto {
		return c.distributeAuto(ds, opts)
	}
	if opts.Replication == 0 {
		opts.Replication = 1
	}
	rep := opts.Replication
	switch opts.Algorithm {
	case Oblivious1D, SparsityAware1D:
		if rep != 1 {
			return nil, fmt.Errorf("sagnn: %s is a 1D algorithm; replication must be 1, got %d", opts.Algorithm, rep)
		}
	case Oblivious15D, SparsityAware15D:
		if rep < 1 || c.p%rep != 0 {
			return nil, fmt.Errorf("sagnn: replication factor %d does not divide %d processes", rep, c.p)
		}
		if (c.p/rep)%rep != 0 {
			return nil, fmt.Errorf("sagnn: 1.5D needs c² | P; got P=%d c=%d", c.p, rep)
		}
	default:
		return nil, fmt.Errorf("sagnn: unknown algorithm %q", opts.Algorithm)
	}
	k := c.p / rep
	if ds.G.NumVertices() < k {
		return nil, fmt.Errorf("sagnn: %d vertices cannot fill %d blocks", ds.G.NumVertices(), k)
	}

	widths, err := epochWidths(ds, opts.CostModel)
	if err != nil {
		return nil, err
	}
	prep := prepare(ds, opts.Partitioner, k)
	engine := buildEngine(c.world, opts.Algorithm, rep, prep)
	if err := distmm.Verify(engine.Plan()); err != nil {
		return nil, err
	}
	engine.SetExecMode(opts.Exec)
	cand := priceCandidate(opts.Algorithm, engine.Plan(), c.world.Params, widths, ds.FeatureDim(), opts.Exec)
	cand.Selected = true
	return c.newDistGraph(ds, opts, prep, engine, &Report{
		Algorithm:        opts.Algorithm,
		Replication:      rep,
		Exec:             opts.Exec,
		Candidates:       []Candidate{cand},
		PartitionQuality: prep.quality,
	}), nil
}

// newDistGraph assembles a DistGraph from its prepared data, engine, and
// decision report.
func (c *Cluster) newDistGraph(ds *Dataset, opts DistOpts, prep *prepared, engine distmm.Engine, report *Report) *DistGraph {
	g := &DistGraph{
		cluster: c,
		ds:      ds,
		opts:    opts,
		aHat:    prep.aHat,
		x:       prep.x,
		labels:  prep.labels,
		train:   prep.train,
		layout:  prep.layout,
		engine:  engine,
		quality: prep.quality,
		report:  report,
		input:   &gcn.InputProduct{World: c.world, Engine: engine, X: prep.x},
	}
	if opts.Sampling != nil {
		g.sampling, g.opts.Sampling = *opts.Sampling, nil
	}
	return g
}

// Cluster returns the cluster this graph is distributed over.
func (g *DistGraph) Cluster() *Cluster { return g.cluster }

// Dataset returns the original (un-permuted) dataset.
func (g *DistGraph) Dataset() *Dataset { return g.ds }

// Algorithm returns the distributed SpMM algorithm in use — the selected
// one when Distribute ran with AlgorithmAuto.
func (g *DistGraph) Algorithm() Algorithm { return g.report.Algorithm }

// PartitionQuality describes the partition when a Partitioner ran, else nil.
func (g *DistGraph) PartitionQuality() *partition.Quality { return g.quality }

// validateDataset checks the invariants every public entry point relies on,
// converting what used to be internal panics into errors.
func validateDataset(ds *Dataset) error {
	switch {
	case ds == nil:
		return fmt.Errorf("sagnn: dataset is nil")
	case ds.G == nil:
		return fmt.Errorf("sagnn: dataset %q has no graph", ds.Name)
	case ds.Features == nil:
		return fmt.Errorf("sagnn: dataset %q has no features", ds.Name)
	case ds.Features.Rows != ds.G.NumVertices():
		return fmt.Errorf("sagnn: dataset %q has %d feature rows for %d vertices", ds.Name, ds.Features.Rows, ds.G.NumVertices())
	case len(ds.Labels) != ds.G.NumVertices():
		return fmt.Errorf("sagnn: dataset %q has %d labels for %d vertices", ds.Name, len(ds.Labels), ds.G.NumVertices())
	case ds.Classes < 1:
		return fmt.Errorf("sagnn: dataset %q has %d classes", ds.Name, ds.Classes)
	}
	// Labels index the loss and the accuracy count, so every split vertex
	// needs a class; vertices in no split may stay unlabeled (-1).
	for _, set := range [][]int{ds.Train, ds.Val, ds.Test} {
		for _, v := range set {
			if v < 0 || v >= ds.G.NumVertices() {
				return fmt.Errorf("sagnn: dataset %q split references vertex %d of %d", ds.Name, v, ds.G.NumVertices())
			}
			if l := ds.Labels[v]; l < 0 || l >= ds.Classes {
				return fmt.Errorf("sagnn: dataset %q split vertex %d has label %d outside [0,%d)", ds.Name, v, l, ds.Classes)
			}
		}
	}
	return nil
}
