package sagnn

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/machine"
	"sagnn/internal/partition"
)

// Candidate is one (algorithm, replication) configuration priced by the
// communication-plan cost model: the modeled time and exact predicted
// per-rank volumes of the distributed SpMMs in one training epoch — and,
// beside them, of the one multiply paid once per DistGraph — computed by
// walking the compiled plan — no training, no data movement. This is the
// paper's algorithm-comparison methodology turned into an API: the right
// algorithm depends on the graph's sparsity structure and the machine's α–β
// parameters, and both are known at plan-compile time.
type Candidate struct {
	Algorithm   Algorithm
	Replication int
	// EpochSeconds is the modeled bulk-synchronous time of one epoch's
	// distributed SpMMs (Σ over phases of the slowest rank) under the
	// sequential executor: the 2L−2 multiplies every epoch issues, all at
	// hidden widths. Weight-gradient reductions and dense GEMMs are
	// identical across candidates at a fixed layout and are not included;
	// DistGraph.PriceEpoch prices the whole epoch.
	EpochSeconds float64
	// OverlapSeconds is the same epoch priced under the overlapped executor
	// (ExecOverlap): per pipelined stage, max(communication, compute)
	// instead of their sum, so only the communication the SpMMs cannot hide
	// remains on the critical path.
	OverlapSeconds float64
	// Breakdown splits EpochSeconds into phases ("bcast", "alltoall",
	// "allreduce", "local").
	Breakdown map[string]float64
	// MaxSentMB / AvgSentMB are the predicted per-rank send volumes of one
	// epoch, exact to the byte (equal to what comm.Stats would measure).
	MaxSentMB float64
	AvgSentMB float64
	// SetupSeconds and SetupMaxSentMB price the first layer's Â·X the same
	// way: one multiply at the feature width, under the executor that will
	// run it (DistOpts.Exec), and the most any rank sends in it. Training
	// never changes its operands, so a DistGraph pays it once, ahead of its
	// first full-batch epoch, and TrainResult reports the measured
	// counterpart on the run that did. It is the widest multiply there is —
	// the one the paper's volume tables are computed at — but it does not
	// recur, so selection minimizes the epoch.
	SetupSeconds   float64
	SetupMaxSentMB float64
	// Sites counts the plan instruction sites (summed over ranks) that the
	// static verifier proved safe before this row was priced: the sweep runs
	// distmm.Verify on every compiled plan and refuses to price one that
	// fails.
	Sites int
	// Selected marks the minimum-modeled-cost candidate.
	Selected bool
	// Skipped is non-empty when the candidate cannot run at this process
	// count (and the cost fields are zero), with the reason.
	Skipped string
}

// Report records how a DistGraph was configured: the algorithm and
// replication factor in effect, the per-candidate cost table behind an
// AlgorithmAuto decision (a single self-priced row otherwise), and the
// partition quality when a partitioner ran.
type Report struct {
	// Algorithm and Replication are the configuration in effect.
	Algorithm   Algorithm
	Replication int
	// Exec is the plan executor in effect; under AlgorithmAuto the selection
	// minimized this mode's modeled epoch cost.
	Exec ExecMode
	// Auto reports whether Distribute selected the algorithm itself.
	Auto bool
	// Candidates is the predicted cost table, in deterministic candidate
	// order; exactly one row is Selected.
	Candidates []Candidate
	// PartitionQuality describes the selected layout's partition when a
	// Partitioner ran, else nil.
	PartitionQuality *partition.Quality
}

// String renders the candidate table for logs.
func (r *Report) String() string {
	s := fmt.Sprintf("algorithm=%s c=%d exec=%s auto=%v\n", r.Algorithm, r.Replication, r.Exec, r.Auto)
	s += fmt.Sprintf("%-24s %2s %12s %12s %10s %10s %12s %14s %s\n", "candidate", "c", "epoch(ms)", "overlap(ms)", "max(MB)", "avg(MB)", "setup(ms)", "setup max(MB)", "note")
	for _, c := range r.Candidates {
		note := c.Skipped
		if c.Selected {
			note = "<== selected"
		}
		if c.Skipped != "" {
			s += fmt.Sprintf("%-24s %2d %12s %12s %10s %10s %12s %14s %s\n", c.Algorithm, c.Replication, "-", "-", "-", "-", "-", "-", note)
			continue
		}
		s += fmt.Sprintf("%-24s %2d %12.3f %12.3f %10.3f %10.3f %12.3f %14.3f %s\n", c.Algorithm, c.Replication,
			c.EpochSeconds*1e3, c.OverlapSeconds*1e3, c.MaxSentMB, c.AvgSentMB, c.SetupSeconds*1e3, c.SetupMaxSentMB, note)
	}
	return s
}

// Report returns a detached copy of the distribution decision record: the
// candidate cost table (per-candidate under AlgorithmAuto) and the
// configuration in effect.
func (g *DistGraph) Report() *Report {
	r := *g.report
	r.Candidates = append([]Candidate(nil), g.report.Candidates...)
	for i, c := range r.Candidates {
		bd := make(map[string]float64, len(c.Breakdown))
		for ph, v := range c.Breakdown {
			bd[ph] = v
		}
		r.Candidates[i].Breakdown = bd
	}
	return &r
}

// epochWidths validates cfg and returns the dense operand widths of the
// distributed SpMMs in one full-batch training epoch of a GCN (or SAGE
// model) with cfg's shape on ds: L−1 forward multiplies at dims[1..L−1],
// plus L−1 backward multiplies at dims[L−1..1] (the backward aggregates
// G·Wᵀ, which has the layer's input width, never G at the class width). The
// first-layer multiply (feature width) would dominate them — which is why
// the paper's volume tables are computed at the feature dimension — but its
// operands are fixed, so it is set-up, priced apart (Candidate.Setup*).
func epochWidths(ds *Dataset, cfg ModelConfig) ([]int, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return gcn.EpochMultiplyWidths(ds.FeatureDim(), cfg.Hidden, ds.Classes, cfg.Layers, cfg.SAGE), nil
}

// priceCandidate fills a Candidate from a compiled plan: the epoch (widths)
// under both executors, so the table shows what overlap would buy each
// algorithm, and the one-time multiply at the feature width fin under the
// executor in effect.
func priceCandidate(alg Algorithm, pl *distmm.Plan, params machine.Params, widths []int, fin int, mode ExecMode) Candidate {
	c := Candidate{
		Algorithm:    alg,
		Replication:  pl.Replication(),
		SetupSeconds: pl.CostWith(params, fin, mode).Total(),
		Sites:        pl.Sites(),
	}
	c.SetupMaxSentMB, _ = distmm.SentSummaryMB(pl.EpochSentBytes([]int{fin}))
	c.MaxSentMB, c.AvgSentMB = distmm.SentSummaryMB(pl.EpochSentBytes(widths))
	if len(widths) > 0 { // a 1-layer model's epoch issues no multiply
		cost := pl.EpochCost(params, widths)
		c.EpochSeconds, c.Breakdown = cost.Total(), cost.Breakdown()
		c.OverlapSeconds = pl.EpochCostWith(params, widths, distmm.ExecOverlap).Total()
	}
	return c
}

// PriceEpoch prices full-batch training of a cfg-shaped model on the graph
// without running it. The epoch is what Session.Run charges one on a healthy
// cluster: the plan's 2L−2 multiplies (at gcn.EpochMultiplyWidths, under the
// graph's executor) plus, on every rank, the trainer's 3L−1 local GEMMs and
// L+1 all-reduces over its gradient group (gcn.EpochCharges), counted at
// comm.AllReduceVolume. The set-up is the one-time Â·X multiply as the
// graph's Report priced it. No data moves and the cluster is not touched, so
// pricing a P = 256 epoch costs no more memory than its compiled plan.
func (g *DistGraph) PriceEpoch(cfg ModelConfig) (*EpochPrice, error) {
	widths, err := epochWidths(g.ds, cfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	params, pl, p := g.cluster.world.Params, g.engine.Plan(), g.cluster.p
	dims := gcn.LayerDims(g.x.Cols, cfg.Hidden, g.ds.Classes, cfg.Layers)
	sent, recv := make([]int64, p), make([]int64, p)
	for _, w := range widths {
		for r, v := range pl.Volumes(w) {
			sent[r] += v.SentBytes
			recv[r] += v.RecvBytes
		}
	}
	trainer := machine.NewLedger(p)
	for r := 0; r < p; r++ {
		lo, hi := g.layout.Range(g.engine.BlockOf(r))
		gemms, reductions := gcn.EpochCharges(dims, cfg.variant(), hi-lo)
		for _, flops := range gemms {
			trainer.Add(r, "local", params.GEMMTime(flops))
		}
		size := g.engine.GradGroup(r).Size()
		for _, n := range reductions {
			// Charged even when it costs nothing, as the executed one is.
			trainer.Add(r, "allreduce", params.AllReduceTime(int64(n)*machine.BytesPerElem, size))
			s, rv, _ := comm.AllReduceVolume(n, size)
			sent[r] += s
			recv[r] += rv
		}
	}
	epoch := pl.EpochCostWith(params, widths, g.opts.Exec).Add(trainer.Snapshot())
	price := &EpochPrice{EpochSeconds: epoch.Total(), Breakdown: epoch.Breakdown(), PartitionQuality: g.quality}
	price.MaxSentMB, price.AvgSentMB = distmm.SentSummaryMB(sent)
	var delivered int64
	for _, b := range recv {
		delivered += b
	}
	price.TotalRecvMB = float64(delivered) / 1e6
	for _, c := range g.report.Candidates {
		if c.Selected {
			price.SetupSeconds, price.SetupMaxSentMB = c.SetupSeconds, c.SetupMaxSentMB
		}
	}
	return price, nil
}

// modeSeconds returns the candidate's modeled epoch cost under the executor
// the caller will actually run — the figure auto-selection minimizes.
func modeSeconds(c Candidate, mode ExecMode) float64 {
	if mode == ExecOverlap {
		return c.OverlapSeconds
	}
	return c.EpochSeconds
}

// sweepCandidates compiles and prices every algorithm candidate on world:
// the shared candidate sweep behind Distribute(AlgorithmAuto) and Estimate,
// so the two can never disagree on feasibility or selection. The dataset is
// staged (partitioned) once per distinct block count. Every compiled plan is
// statically verified before it is priced — a plan that fails Verify is a
// compiler bug, and the sweep surfaces it as a hard error rather than
// silently pricing (or worse, later running) a malformed schedule. It
// returns the table, the index of the minimum-modeled-cost row (first
// candidate wins ties; −1 when none is feasible), and the engine and
// prepared data per row (nil on skipped rows).
func sweepCandidates(world *comm.World, ds *Dataset, opts DistOpts, widths []int) (
	cands []Candidate, best int, engines []distmm.Engine, rowPreps []*prepared, err error) {
	p := world.P
	best = -1
	bestCost := 0.0
	preps := make(map[int]*prepared) // block count → staged dataset
	for _, spec := range distmm.EnumerateCandidates(p) {
		alg := Algorithm(spec.Name)
		skip := spec.Skip
		k := p / spec.C
		if skip == "" && ds.G.NumVertices() < k {
			skip = fmt.Sprintf("%d vertices cannot fill %d blocks", ds.G.NumVertices(), k)
		}
		if skip != "" {
			cands = append(cands, Candidate{Algorithm: alg, Replication: spec.C, Skipped: skip})
			engines, rowPreps = append(engines, nil), append(rowPreps, nil)
			continue
		}
		prep, ok := preps[k]
		if !ok {
			prep = prepare(ds, opts.Partitioner, k)
			preps[k] = prep
		}
		engine := buildEngine(world, alg, spec.C, prep)
		if verr := distmm.Verify(engine.Plan()); verr != nil {
			return nil, -1, nil, nil, verr
		}
		cand := priceCandidate(alg, engine.Plan(), world.Params, widths, ds.FeatureDim(), opts.Exec)
		if sec := modeSeconds(cand, opts.Exec); best < 0 || sec < bestCost {
			best, bestCost = len(cands), sec
		}
		cands = append(cands, cand)
		engines, rowPreps = append(engines, engine), append(rowPreps, prep)
	}
	if best >= 0 {
		cands[best].Selected = true
	}
	return cands, best, engines, rowPreps, nil
}

// distributeAuto is Distribute with Algorithm: AlgorithmAuto: one shared
// candidate sweep on the cluster's world, keeping only the winner's engine
// and layout.
func (c *Cluster) distributeAuto(ds *Dataset, opts DistOpts) (*DistGraph, error) {
	if opts.Replication > 1 {
		return nil, fmt.Errorf("sagnn: AlgorithmAuto selects the replication factor; leave Replication unset, got %d", opts.Replication)
	}
	widths, err := epochWidths(ds, opts.CostModel)
	if err != nil {
		return nil, err
	}
	cands, best, engines, rowPreps, err := sweepCandidates(c.world, ds, opts, widths)
	if err != nil {
		return nil, err
	}
	if best < 0 {
		return nil, fmt.Errorf("sagnn: no feasible algorithm candidate for %d vertices on %d processes", ds.G.NumVertices(), c.p)
	}
	engines[best].SetExecMode(opts.Exec)
	return c.newDistGraph(ds, opts, rowPreps[best], engines[best], &Report{
		Algorithm:        cands[best].Algorithm,
		Replication:      cands[best].Replication,
		Exec:             opts.Exec,
		Auto:             true,
		Candidates:       cands,
		PartitionQuality: rowPreps[best].quality,
	}), nil
}

// Estimate returns the full predicted cost table for distributing ds over
// this cluster — every 1D and 1.5D candidate the process count allows —
// without moving any data or touching the cluster's live world. The
// minimum-cost candidate is marked Selected (the one Distribute with
// AlgorithmAuto would pick). opts.Algorithm is ignored; opts.Partitioner,
// opts.CostModel and opts.Exec shape the estimate exactly as they would
// shape Distribute.
func (c *Cluster) Estimate(ds *Dataset, opts DistOpts) ([]Candidate, error) {
	if err := validateDataset(ds); err != nil {
		return nil, err
	}
	if err := validateExec(opts.Exec); err != nil {
		return nil, err
	}
	widths, err := epochWidths(ds, opts.CostModel)
	if err != nil {
		return nil, err
	}
	// Candidate plans compile on a throwaway world with the same size and
	// machine parameters: groups and schedules are structural, so costs and
	// volumes are identical, and the cluster's live world accretes nothing.
	cands, _, _, _, err := sweepCandidates(comm.NewWorld(c.p, c.world.Params), ds, opts, widths)
	return cands, err
}
