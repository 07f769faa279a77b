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
// communication-plan cost model: the modeled time of one training epoch of
// a default-shaped GCN and the exact predicted per-rank volumes of its
// distributed SpMMs — and, beside them, of the one multiply paid once per
// DistGraph — computed by walking the compiled plan — no training, no data
// movement. This is the paper's algorithm-comparison methodology turned
// into an API: the right algorithm depends on the graph's sparsity
// structure and the machine's α–β parameters, and both are known at
// plan-compile time.
type Candidate struct {
	Algorithm   Algorithm
	Replication int
	// EpochSeconds is the modeled bulk-synchronous time of one whole epoch
	// of a GCN of the ModelConfig defaults' shape (Σ over phases of the
	// slowest rank): the 2L−2 distributed SpMMs at hidden widths, each
	// rank's dense GEMMs over its block rows and the all-reduces over its
	// gradient group. Replication changes all three, so selection minimizes
	// this sum; it equals the named graph's PriceEpoch(ModelConfig{}).
	EpochSeconds float64
	// Breakdown splits EpochSeconds into phases ("bcast", "alltoall",
	// "allreduce", "local").
	Breakdown map[string]float64
	// MaxSentMB / AvgSentMB are the predicted per-rank send volumes of one
	// epoch's distributed SpMMs, exact to the byte (equal to what comm.Stats
	// would measure). The gradient all-reduces are not included; PriceEpoch
	// counts them.
	MaxSentMB float64
	AvgSentMB float64
	// SetupSeconds and SetupMaxSentMB price the first layer's Â·X the same
	// way, as it runs: the feature width in column panels
	// (distmm.SetupWidths), one multiply each, and the most any rank
	// sends in them — the bytes of one feature-width multiply, the α terms
	// of one per panel. Training never changes its operands, so a DistGraph
	// pays it once, ahead of its first full-batch epoch, and TrainResult
	// reports the measured counterpart on the run that did. It is the widest
	// product there is — the one the paper's volume tables are computed
	// at — but it does not recur, so selection minimizes the epoch.
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
// AlgorithmAuto decision (otherwise the named algorithm's one row, equal to
// its row of Cluster.Estimate), and the partition quality when a
// partitioner ran.
type Report struct {
	// Algorithm and Replication are the configuration in effect.
	Algorithm   Algorithm
	Replication int
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
	s := fmt.Sprintf("algorithm=%s c=%d auto=%v\n", r.Algorithm, r.Replication, r.Auto)
	s += fmt.Sprintf("%-24s %2s %12s %10s %10s %12s %14s %s\n", "candidate", "c", "epoch(ms)", "max(MB)", "avg(MB)", "setup(ms)", "setup max(MB)", "note")
	for _, c := range r.Candidates {
		note := c.Skipped
		if c.Selected {
			note = "<== selected"
		}
		if c.Skipped != "" {
			s += fmt.Sprintf("%-24s %2d %12s %10s %10s %12s %14s %s\n", c.Algorithm, c.Replication, "-", "-", "-", "-", "-", note)
			continue
		}
		s += fmt.Sprintf("%-24s %2d %12.3f %10.3f %10.3f %12.3f %14.3f %s\n", c.Algorithm, c.Replication,
			c.EpochSeconds*1e3, c.MaxSentMB, c.AvgSentMB, c.SetupSeconds*1e3, c.SetupMaxSentMB, note)
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

// priceEpoch prices one full-batch training epoch of a GCN with layer
// widths dims on e under params — what Session.Run charges one on a healthy
// cluster: the plan's 2L−2 multiplies (at gcn.EpochMultiplyWidths) plus, on
// every rank, the trainer's 3L−1 local GEMMs over its block rows and L+1
// all-reduces over its gradient group (gcn.EpochCharges), counted at
// comm.AllReduceVolume. It returns the epoch's modeled phases, each rank's
// sent and received bytes, and each rank's sent bytes of the multiplies
// alone. Candidates, Estimate and PriceEpoch all read this one price.
func priceEpoch(e distmm.Engine, params machine.Params, dims []int) (epoch *machine.Snapshot, sent, recv, multSent []int64) {
	// dims[1] is the hidden width whenever L ≥ 2; L = 1 issues no multiply.
	L, pl := len(dims)-1, e.Plan()
	mult, sent, recv := priceMultiplies(pl, params, gcn.EpochMultiplyWidths(dims[0], dims[1], dims[L], L, false))
	multSent = append([]int64(nil), sent...)
	p := pl.Ranks()
	trainer := machine.NewLedger(p)
	for r := 0; r < p; r++ {
		lo, hi := e.Layout().Range(e.BlockOf(r))
		gemms, reductions := gcn.EpochCharges(dims, hi-lo)
		for _, flops := range gemms {
			trainer.Add(r, "local", params.GEMMTime(flops))
		}
		size := e.GradGroup(r).Size()
		for _, n := range reductions {
			// Charged even when it costs nothing, as the executed one is.
			trainer.Add(r, "allreduce", params.AllReduceTime(int64(n)*machine.BytesPerElem, size))
			s, rv, _ := comm.AllReduceVolume(n, size)
			sent[r] += s
			recv[r] += rv
		}
	}
	return mult.Add(trainer.Snapshot()), sent, recv, multSent
}

// priceMultiplies prices a sequence of collective multiplies on pl at the
// given dense widths: their modeled phases and each rank's sent and
// received bytes. An epoch's multiplies (priceEpoch) and the set-up product
// (distmm.SetupWidths) are both such sequences.
func priceMultiplies(pl *distmm.Plan, params machine.Params, widths []int) (cost *machine.Snapshot, sent, recv []int64) {
	sent, recv = make([]int64, pl.Ranks()), make([]int64, pl.Ranks())
	for _, w := range widths {
		for r, v := range pl.Volumes(w) {
			sent[r] += v.SentBytes
			recv[r] += v.RecvBytes
		}
	}
	return pl.EpochCost(params, widths), sent, recv
}

// PriceEpoch prices full-batch training of a cfg-shaped model on the graph
// without running it: the epoch priceEpoch prices, plus the set-up — the
// one-time Â·X multiply as the graph's Report priced it. No data moves and
// the cluster is not touched, so pricing a P = 256 epoch costs no more
// memory than its compiled plan.
func (g *DistGraph) PriceEpoch(cfg ModelConfig) (*EpochPrice, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dims := gcn.LayerDims(g.input.X.Cols, cfg.Hidden, g.ds.Classes, cfg.Layers)
	epoch, sent, recv, _ := priceEpoch(g.engine, g.cluster.world.Params, dims)
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

// sweepCandidates compiles and prices specs on world: the one path behind
// Distribute (every candidate under AlgorithmAuto, one row for a named
// algorithm) and Estimate, so they can never disagree on feasibility,
// pricing or selection. The dataset is staged (partitioned) once per
// distinct block count. Every compiled plan is statically verified before
// it is priced — a plan that fails Verify is a compiler bug, and the sweep
// surfaces it as a hard error rather than silently pricing (or worse, later
// running) a malformed schedule. Each row is priced by priceEpoch at the
// ModelConfig defaults' shape. It returns the table, the index of the
// minimum-modeled-cost row (first candidate wins ties; −1 when none is
// feasible), and that row's engine and staged data.
func sweepCandidates(world *comm.World, ds *Dataset, specs []distmm.CandidateSpec, opts DistOpts) (
	cands []Candidate, best int, engine distmm.Engine, prep *prepared, err error) {
	best = -1
	bestCost := 0.0
	cfg, fin := ModelConfig{}.withDefaults(), ds.FeatureDim()
	dims := gcn.LayerDims(fin, cfg.Hidden, ds.Classes, cfg.Layers)
	setup := distmm.SetupWidths(fin)
	preps := make(map[int]*prepared) // block count → staged dataset
	for _, spec := range specs {
		alg := Algorithm(spec.Name)
		skip := spec.Skip
		if skip == "" && ds.G.NumVertices() < world.P/spec.C {
			skip = fmt.Sprintf("%d vertices cannot fill %d blocks", ds.G.NumVertices(), world.P/spec.C)
		}
		if skip != "" {
			cands = append(cands, Candidate{Algorithm: alg, Replication: spec.C, Skipped: skip})
			continue
		}
		k := world.P / spec.C
		rowPrep, ok := preps[k]
		if !ok {
			rowPrep = prepare(ds, opts.Partitioner, k)
			preps[k] = rowPrep
		}
		e, nerr := distmm.NewEngine(world, spec.Name, spec.C, rowPrep.aHat, rowPrep.layout)
		if nerr != nil {
			return nil, -1, nil, nil, nerr
		}
		pl := e.Plan()
		if verr := distmm.Verify(pl); verr != nil {
			return nil, -1, nil, nil, verr
		}
		epoch, _, _, multSent := priceEpoch(e, world.Params, dims)
		setupCost, setupSent, _ := priceMultiplies(pl, world.Params, setup)
		cand := Candidate{
			Algorithm:    alg,
			Replication:  pl.Replication(),
			EpochSeconds: epoch.Total(),
			Breakdown:    epoch.Breakdown(),
			SetupSeconds: setupCost.Total(),
			Sites:        pl.Sites(),
		}
		cand.MaxSentMB, cand.AvgSentMB = distmm.SentSummaryMB(multSent)
		cand.SetupMaxSentMB, _ = distmm.SentSummaryMB(setupSent)
		if best < 0 || cand.EpochSeconds < bestCost {
			best, bestCost, engine, prep = len(cands), cand.EpochSeconds, e, rowPrep
		}
		cands = append(cands, cand)
	}
	if best >= 0 {
		cands[best].Selected = true
	}
	return cands, best, engine, prep, nil
}

// Estimate returns the full predicted cost table for distributing ds over
// this cluster — every 1D and 1.5D candidate the process count allows —
// without moving any data or touching the cluster's live world. The
// minimum-cost candidate is marked Selected (the one Distribute with
// AlgorithmAuto would pick). Every row prices an epoch of the ModelConfig
// defaults' shape. opts.Algorithm is ignored; opts.Partitioner shapes the
// estimate exactly as it would shape Distribute, and an opts.Exec other
// than ExecSequential is an error.
func (c *Cluster) Estimate(ds *Dataset, opts DistOpts) ([]Candidate, error) {
	if err := validateDataset(ds); err != nil {
		return nil, err
	}
	if err := validateExec(opts.Exec); err != nil {
		return nil, err
	}
	// Candidate plans compile on a throwaway world with the same size and
	// machine parameters: groups and schedules are structural, so costs and
	// volumes are identical, and the cluster's live world accretes nothing.
	cands, _, _, _, err := sweepCandidates(comm.NewWorld(c.p, c.world.Params), ds, distmm.EnumerateCandidates(c.p), opts)
	return cands, err
}
