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
//	(steppable training) → Model.Predict (serving).
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
	// 1D algorithms require; negative is an error). The process count must
	// allow the (P/c)×c grid, as distmm.Spec states. Leave unset with
	// AlgorithmAuto, which selects c itself.
	Replication int
	// Partitioner, if non-nil, reorders the graph before distribution and
	// records the resulting partition quality on the DistGraph. Under
	// AlgorithmAuto it runs once per distinct block count the candidates
	// need.
	Partitioner Partitioner
	// Exec names the plan executor. ExecSequential, the zero value, is the
	// only one; any other value is an error from Distribute and Estimate.
	// The field remains for callers that still set it (see ExecMode).
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

// validateExec rejects every ExecMode but ExecSequential, the one executor.
func validateExec(m ExecMode) error {
	if m != ExecSequential {
		return fmt.Errorf("sagnn: unknown DistOpts.Exec %d: ExecSequential is the only executor", m)
	}
	return nil
}

// DistGraph is a dataset distributed across a cluster: the permuted
// normalized adjacency, relabeled labels/splits, the block-row layout, the
// communication engine with its sparsity-aware schedule, and what depends
// on nothing else — the first layer's aggregate Â·X, which training never
// changes.
//
// Building a DistGraph is the expensive, amortizable step the paper
// identifies (partitioning plus NnzCols schedule construction); once built
// it can back any number of training sessions — different seeds or model
// shapes — without repeating that work. Â·X is part of
// that set-up, paid lazily: the first full-batch step of any session on the
// graph computes it (one launch: a distributed SpMM per column panel of
// the features), every
// epoch of every session reads it, and a graph that only ever trains
// sampled never computes it. The features stay where they lie: Â·X reads
// the dataset's own rows through the inverse relabeling, so a full-batch
// graph holds no copy of X. Only sampled training reads features in the
// engine's order; the first RunSampled on the graph builds them once for
// every session on it.
type DistGraph struct {
	cluster *Cluster
	ds      *Dataset
	opts    DistOpts
	// sampling is the validated copy of opts.Sampling (zero: all defaults);
	// the seed default resolves per session.
	sampling SamplingConfig

	// prepared is the staged data the engine was compiled over.
	*prepared
	engine distmm.Engine
	report *Report

	// input is Â·X over engine and the dataset's features as Distribute saw
	// them, shared by every session's trainer and used under cluster.mu.
	input *gcn.InputProduct

	// sampledX holds the features the ranks this process hosts own, in the
	// engine's vertex order (gcn.HostedRows), for sampled training:
	// every row on a simulated cluster, one rank's block on a TCP one; a
	// view of the dataset's features without a partitioner, else their one
	// permuted copy. Nil until the first RunSampled (sampledFeatures).
	sampledX    *dense.Matrix
	sampledOnce sync.Once
}

// prepared is a dataset staged for a k-block distribution: the (optionally
// permuted) normalized adjacency, relabeled labels and training set, the
// permutation, the block-row layout, and the partition quality when a
// partitioner ran. The features are never permuted here: Â·X reads them
// through the inverse of perm (gcn.InputProduct.Rows), and only the
// sampled trainer takes a permuted copy (DistGraph.sampledFeatures).
type prepared struct {
	aHat    *sparse.CSR
	labels  []int
	train   []int
	perm    []int // vertex v's id in the staged order; nil: the dataset's own
	layout  distmm.Layout
	quality *partition.Quality
}

// prepare stages ds for a k-block distribution, running pt (if non-nil) to
// reorder the graph. This is the partitioning half of the expensive setup;
// AlgorithmAuto caches it per distinct k across candidates.
func prepare(ds *Dataset, pt Partitioner, k int) *prepared {
	p := &prepared{
		aHat:   ds.NormalizedAdjacency(),
		labels: ds.Labels,
		train:  ds.Train,
	}
	if pt != nil {
		part := pt.Partition(ds.G, k)
		q := partition.Evaluate(pt.Name(), ds.G, part)
		p.quality = &q
		p.perm = part.Perm()
		p.aHat = p.aHat.PermuteSymmetric(p.perm)
		var sets [][]int
		p.labels, sets = gcn.Relabel(p.perm, p.labels, p.train)
		p.train = sets[0]
		p.layout = distmm.LayoutFromOffsets(part.Offsets())
	} else {
		p.layout = distmm.UniformLayout(ds.G.NumVertices(), k)
	}
	return p
}

// Distribute partitions (optionally) and distributes a dataset across the
// cluster, building the communication engine once for reuse by any number
// of sessions. It runs the candidate sweep Estimate runs: with Algorithm:
// AlgorithmAuto over every candidate the process count allows, keeping the
// cheapest under the cluster's machine model; with a named algorithm over
// that one (Algorithm, Replication) row, whose skip reason — an unknown
// name, a replication factor the process count forbids, too few vertices —
// is the error. Report exposes the table either way. Every plan it keeps
// has passed the static verifier (distmm.Verify: message matching, deadlock
// freedom and layout consistency over every rank's instruction stream); one
// that fails is returned as its *distmm.VerifyError.
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
	auto := opts.Algorithm == AlgorithmAuto
	specs := distmm.EnumerateCandidates(c.p)
	switch {
	case opts.Replication < 0:
		return nil, fmt.Errorf("sagnn: DistOpts.Replication %d is negative", opts.Replication)
	case auto && opts.Replication > 1:
		return nil, fmt.Errorf("sagnn: AlgorithmAuto selects the replication factor; leave Replication unset, got %d", opts.Replication)
	case !auto:
		if opts.Replication == 0 {
			opts.Replication = 1
		}
		specs = []distmm.CandidateSpec{distmm.Spec(string(opts.Algorithm), opts.Replication, c.p)}
	}
	cands, best, engine, prep, err := sweepCandidates(c.world, ds, specs, opts)
	if err != nil {
		return nil, err
	}
	switch {
	case !auto && best < 0:
		return nil, fmt.Errorf("sagnn: %s", cands[0].Skipped)
	case best < 0:
		return nil, fmt.Errorf("sagnn: no feasible algorithm candidate for %d vertices on %d processes", ds.G.NumVertices(), c.p)
	}
	g := &DistGraph{
		cluster:  c,
		ds:       ds,
		opts:     opts,
		prepared: prep,
		engine:   engine,
		report: &Report{
			Algorithm:        cands[best].Algorithm,
			Replication:      cands[best].Replication,
			Auto:             auto,
			Candidates:       cands,
			PartitionQuality: prep.quality,
		},
	}
	g.input = &gcn.InputProduct{World: c.world, Engine: engine, X: ds.Features}
	if prep.perm != nil {
		g.input.Rows = make([]int, len(prep.perm))
		for v, i := range prep.perm {
			g.input.Rows[i] = v
		}
	}
	if opts.Sampling != nil {
		g.sampling, g.opts.Sampling = *opts.Sampling, nil
	}
	return g, nil
}

// sampledFeatures returns sampledX, building it on the first call: the
// rows of the features Distribute saw, permuted like the graph (as they
// are without a partitioner, a view), that the ranks this process hosts
// own — all of them in one copy on a simulated world, one block's over
// TCP, gathered straight from the dataset's.
func (g *DistGraph) sampledFeatures() *dense.Matrix {
	g.sampledOnce.Do(func() {
		lo, hi := gcn.HostedSpan(g.cluster.world, g.layout.Range) // one block per rank, as RunSampled checked
		g.sampledX = g.input.X.SliceRows(lo, hi)
		if g.perm != nil {
			g.sampledX = g.input.X.PermutedRows(g.perm, lo, hi)
		}
	})
	return g.sampledX
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
