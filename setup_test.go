package sagnn

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gcn"
)

// This file pins the set-up half of full-batch training: Â·X is computed
// once per DistGraph, in a launch of its own that is counted, priced and
// reported apart from the epochs, survives faults and cancellation by
// keeping nothing, and is never written by the runs that read it.

// allReduceBytes is what every rank of g sends per full-batch epoch outside
// the distributed SpMMs: the loss pair and one weight gradient per layer,
// over the engine's gradient group.
func allReduceBytes(g *DistGraph, cfg ModelConfig) int64 {
	cfg = cfg.withDefaults()
	dims := gcn.LayerDims(g.x.Cols, cfg.Hidden, g.ds.Classes, cfg.Layers)
	size := g.engine.GradGroup(0).Size()
	total, _, _ := comm.AllReduceVolume(2, size)
	for l := 0; l+1 < len(dims); l++ {
		s, _, _ := comm.AllReduceVolume(cfg.variant().InputRows(dims[l])*dims[l+1], size)
		total += s
	}
	return total
}

func relClose(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

func bytesOf(mb float64) int64 { return int64(math.Round(mb * 1e6)) }

// TestSetupAccountedApartFromEpochs: the run that pays for Â·X reports the
// same per-epoch figures as every later run — equal to the Report's
// prediction plus the all-reduces, byte for byte — and reports the set-up
// beside them, equal to the Report's set-up prediction; later runs report no
// set-up at all.
func TestSetupAccountedApartFromEpochs(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	for _, tc := range []struct {
		name string
		opts DistOpts
		cfg  ModelConfig
	}{
		{"sa-1d+gvb", DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}, ModelConfig{Seed: 7}},
		{"oblivious-1d/overlap", DistOpts{Algorithm: Oblivious1D, Exec: ExecOverlap}, ModelConfig{Seed: 7}},
		{"sa-1.5d/sage", DistOpts{Algorithm: SparsityAware15D, Replication: 2, CostModel: ModelConfig{SAGE: true}}, ModelConfig{Seed: 7, SAGE: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, err := NewCluster(4)
			if err != nil {
				t.Fatal(err)
			}
			dg, err := cluster.Distribute(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cand := dg.Report().Candidates[0]
			if cand.SetupSeconds <= 0 || cand.SetupMaxSentMB <= cand.MaxSentMB {
				t.Fatalf("set-up priced at %v s / %v MB beside a %v MB epoch", cand.SetupSeconds, cand.SetupMaxSentMB, cand.MaxSentMB)
			}
			sess, err := dg.NewSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func(s *Session, epochs int) *TrainResult {
				res, err := s.Run(context.Background(), epochs)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run(sess, 3)
			second := run(sess, 2)
			other, err := dg.NewSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			third := run(other, 3)

			ar := allReduceBytes(dg, tc.cfg)
			for i, res := range []*TrainResult{first, second, third} {
				if got, want := bytesOf(res.MaxSentMB), bytesOf(cand.MaxSentMB)+ar; got != want {
					t.Fatalf("run %d: max sent %d B per epoch, plan predicts %d", i, got, want)
				}
				if got, want := bytesOf(res.AvgSentMB), bytesOf(cand.AvgSentMB)+ar; got != want {
					t.Fatalf("run %d: avg sent %d B per epoch, plan predicts %d", i, got, want)
				}
				if res.MaxSentMB != first.MaxSentMB || res.AvgSentMB != first.AvgSentMB || res.TotalRecvMB != first.TotalRecvMB {
					t.Fatalf("run %d: volumes (%v,%v,%v) differ from the first run's (%v,%v,%v)", i,
						res.MaxSentMB, res.AvgSentMB, res.TotalRecvMB, first.MaxSentMB, first.AvgSentMB, first.TotalRecvMB)
				}
				// Modeled time is a difference against a moving ledger baseline.
				if !relClose(res.EpochSeconds, first.EpochSeconds) {
					t.Fatalf("run %d: EpochSeconds %v, first run %v", i, res.EpochSeconds, first.EpochSeconds)
				}
			}
			if first.SetupMaxSentMB != cand.SetupMaxSentMB {
				t.Fatalf("set-up measured %v MB, predicted %v", first.SetupMaxSentMB, cand.SetupMaxSentMB)
			}
			if !relClose(first.SetupSeconds, cand.SetupSeconds) {
				t.Fatalf("set-up measured %v s, predicted %v", first.SetupSeconds, cand.SetupSeconds)
			}
			for i, res := range []*TrainResult{second, third} {
				if res.SetupSeconds != 0 || res.SetupMaxSentMB != 0 {
					t.Fatalf("run %d paid set-up again: %v s, %v MB", i+1, res.SetupSeconds, res.SetupMaxSentMB)
				}
			}
		})
	}
}

// setupFixture is a fresh 4-process graph and session for the abort tests.
func setupFixture(t *testing.T, opts ...SessionOption) (*Cluster, *DistGraph, *Session) {
	t.Helper()
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(MustLoadDataset(ProteinSim, 42, 64), DistOpts{Algorithm: SparsityAware15D, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 7}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, dg, sess
}

func sameHistory(t *testing.T, what string, got, want []EpochResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: epoch %d %+v, uninterrupted %+v", what, i, got[i], want[i])
		}
	}
}

// TestSetupLaunchFaultAtEverySite injects a fault at every op site of the
// session's set-up launch: Run surfaces the typed error with nothing
// trained, nothing of Â·X is kept and no replica is inconsistent, so a plain
// retry — no restore — recomputes it and trains bit-identically to a session
// that was never interrupted; with WithRecovery the same fault is absorbed
// inside Run.
func TestSetupLaunchFaultAtEverySite(t *testing.T) {
	const epochs = 3
	_, _, cleanSess := setupFixture(t)
	clean, err := cleanSess.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}

	probeCl, _, probe := setupFixture(t)
	if err := probe.stepper.Setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sites := 0
	for rank := 0; rank < 4; rank++ {
		for op := int64(1); op <= probeCl.world.Ops(rank); op++ {
			sites++
			cluster, dg, sess := setupFixture(t)
			cluster.InjectFault(rank, op, nil)
			res, err := sess.Run(context.Background(), epochs)
			var re *RankError
			if !errors.As(err, &re) || !errors.Is(err, ErrInjectedFault) || re.Rank != rank {
				t.Fatalf("rank %d op %d: got %v, want the injected *RankError", rank, op, err)
			}
			if len(res.History) != 0 || sess.Epoch() != 0 || sess.stepper.Dirty() {
				t.Fatalf("rank %d op %d: aborted set-up left %d epochs, epoch counter %d, dirty=%v",
					rank, op, len(res.History), sess.Epoch(), sess.stepper.Dirty())
			}
			for r := 0; r < 4; r++ {
				if dg.input.Block(r) != nil {
					t.Fatalf("rank %d op %d: rank %d's block of Â·X survived the aborted launch", rank, op, r)
				}
			}
			retried, err := sess.Run(context.Background(), epochs)
			if err != nil {
				t.Fatalf("rank %d op %d: retry: %v", rank, op, err)
			}
			sameHistory(t, "retry", retried.History, clean.History)
			if retried.SetupMaxSentMB != clean.SetupMaxSentMB {
				t.Fatalf("rank %d op %d: the retry's set-up moved %v MB, an uninterrupted one %v",
					rank, op, retried.SetupMaxSentMB, clean.SetupMaxSentMB)
			}

			cluster, dg, sess = setupFixture(t, WithRecovery(2, time.Millisecond))
			wide := observeMultiplies(t)
			cluster.InjectFault(rank, op, nil)
			recovered, err := sess.Run(context.Background(), epochs)
			if err != nil {
				t.Fatalf("rank %d op %d: recovering run: %v", rank, op, err)
			}
			sameHistory(t, "recovered", recovered.History, clean.History)
			n := 0
			for _, w := range *wide {
				if w == dg.x.Cols {
					n++
				}
			}
			if n != 2 {
				t.Fatalf("rank %d op %d: %d feature-width multiplies under recovery, want the aborted one and its replay", rank, op, n)
			}
			gcn.ObserveMultiplies(nil)
		}
	}
	if sites < 8 {
		t.Fatalf("only %d fault sites in the set-up launch", sites)
	}
	waitGoroutinesSettle(t, base, 5*time.Second)
}

// TestSetupLaunchCancelledMidFlight cancels the context while the set-up
// multiply is in flight: Run returns ctx.Err(), keeps nothing, leaks no
// goroutine, and the session trains on bit-identically under a live context.
func TestSetupLaunchCancelledMidFlight(t *testing.T) {
	const epochs = 3
	_, _, cleanSess := setupFixture(t)
	clean, err := cleanSess.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	_, dg, sess := setupFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	launches := 0
	gcn.ObserveMultiplies(func(w int) {
		// The recorder rank is about to enter the feature-width multiply: the
		// launch cannot complete without it, so holding it here until the
		// abort has landed cancels the launch mid-flight, deterministically.
		if launches++; launches == 1 {
			cancel()
			time.Sleep(100 * time.Millisecond)
		}
	})
	defer gcn.ObserveMultiplies(nil)
	res, err := sess.Run(ctx, epochs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(res.History) != 0 || sess.stepper.Dirty() || dg.input.Block(0) != nil {
		t.Fatalf("cancelled set-up left %d epochs, dirty=%v, cached=%v", len(res.History), sess.stepper.Dirty(), dg.input.Block(0) != nil)
	}
	waitGoroutinesSettle(t, base, 5*time.Second)

	resumed, err := sess.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	sameHistory(t, "after cancellation", resumed.History, clean.History)
}

func hashBits(h interface{ Write([]byte) (int, error) }, m *dense.Matrix) {
	var b [8]byte
	for _, v := range m.Data {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
}

// TestInterleavedRunsMatchParentGolden runs Run(3) → RunSampled(2) → Run(3)
// on one session — the sampled leg reshapes every workspace buffer the
// full-batch legs use — and requires the losses and held-out accuracies the
// build before Â·X was hoisted produced for the same sequence (recorded from
// it), and that the sampled leg never wrote Â·X. The final weights hash was
// re-recorded when the GCN backward became Wᵀ-first (it aggregates G·Wᵀ at
// the hidden width where the parent aggregated G at the class width): the
// gradients moved in their last bits, every pinned loss and accuracy held.
func TestInterleavedRunsMatchParentGolden(t *testing.T) {
	wantLoss := []uint64{
		0x40096137282ded71, 0x4009605548ec63ca, 0x40095f6e55d89437,
		0x4009551e51867d62, 0x400960b8c189b17a,
		0x40095a86171e7f58, 0x40095989d761260e, 0x400958896d44f2b5,
	}
	wantEval := [][2]uint64{
		{0x3fb9191919191919, 0x3faf3831f3831f38},
		{0x3fb4141414141414, 0x3fab7921b7921b79},
		{0x3fae1e1e1e1e1e1e, 0x3faa3971a3971a39},
	}
	const wantWeights = 0x4f6635dab1dd5bbd

	sess := sampledSession(t, ExecSequential)
	productHash := func() uint64 {
		h := fnv.New64a()
		for r := 0; r < 4; r++ {
			hashBits(h, sess.dg.input.Block(r))
		}
		return h.Sum64()
	}
	var hist []EpochResult
	var product uint64
	for leg, n := range []int{3, 2, 3} {
		run := sess.Run
		if leg == 1 {
			run = sess.RunSampled
		}
		res, err := run(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, res.History...)
		if got := [2]uint64{math.Float64bits(res.ValAcc), math.Float64bits(res.TestAcc)}; got != wantEval[leg] {
			t.Fatalf("leg %d: held-out accuracies %x, parent build %x", leg, got, wantEval[leg])
		}
		if leg == 0 {
			product = productHash()
		} else if got := productHash(); got != product {
			t.Fatalf("leg %d changed Â·X: %x → %x", leg, product, got)
		}
	}
	for i, r := range hist {
		if got := math.Float64bits(r.Loss); got != wantLoss[i] {
			t.Fatalf("epoch %d: loss bits %x, parent build %x", i, got, wantLoss[i])
		}
	}
	h := fnv.New64a()
	for _, w := range sess.Model().m.Weights {
		hashBits(h, w)
	}
	if got := h.Sum64(); got != wantWeights {
		t.Fatalf("final weights hash %x, recorded %x", got, uint64(wantWeights))
	}
}

// TestHeldOutEvaluatorSharedAcrossSessions: every run on a graph — whatever
// its model shape or variant — evaluates through its Model over the
// dataset's one Â·X, and reports what a fresh graph's run would.
func TestHeldOutEvaluatorSharedAcrossSessions(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	opts := DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}
	cfgs := []ModelConfig{{Seed: 7}, {Seed: 9, SAGE: true, Hidden: 8, Layers: 2}, {Seed: 7}}

	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		sess, err := dg.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := InferenceProduct(res.Model); got == nil || got != ds.InputProduct() {
			t.Fatalf("session %d: evaluated over Â·X %p, not the dataset's %p", i, got, ds.InputProduct())
		}
		fresh, _ := trainVia(t, ds, 4, opts, cfg, 3)
		if res.ValAcc != fresh.ValAcc || res.TestAcc != fresh.TestAcc {
			t.Fatalf("session %d: shared evaluator reports (%v,%v), a fresh graph's (%v,%v)",
				i, res.ValAcc, res.TestAcc, fresh.ValAcc, fresh.TestAcc)
		}
	}
}

// TestDistributeLeavesDatasetAdjacency: Distribute reads the dataset's one
// Â — PermuteSymmetric copies it under a partitioner, the engine reads it
// as it is without one — and neither it nor the training and held-out
// evaluation that follow write a bit of it.
func TestDistributeLeavesDatasetAdjacency(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	a := ds.NormalizedAdjacency()
	want := a.Clone()
	for _, pt := range []Partitioner{nil, NewGVB(42)} {
		cluster, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: pt})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dg.NewSession(ModelConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		if ds.NormalizedAdjacency() != a {
			t.Fatalf("partitioner %v: the dataset's Â was rebuilt", pt)
		}
		if !slices.Equal(a.RowPtr, want.RowPtr) || !slices.Equal(a.ColIdx, want.ColIdx) {
			t.Fatalf("partitioner %v: Distribute rewrote the dataset's Â structure", pt)
		}
		for i, v := range a.Val {
			if math.Float64bits(v) != math.Float64bits(want.Val[i]) {
				t.Fatalf("partitioner %v: Distribute rewrote Â value %d", pt, i)
			}
		}
	}
}

// TestSingleLayerModelHasNoEpochMultiplies: a one-layer model's only
// multiply is Â·X, so its epochs exchange nothing but the all-reduces and
// its priced epoch is empty — on the explicit and the auto path alike.
func TestSingleLayerModelHasNoEpochMultiplies(t *testing.T) {
	ds := autoDS()
	cfg := ModelConfig{Layers: 1}
	for _, alg := range []Algorithm{SparsityAware1D, AlgorithmAuto} {
		cluster, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cluster.Distribute(ds, DistOpts{Algorithm: alg, CostModel: cfg})
		if err != nil {
			t.Fatal(err)
		}
		rep := dg.Report()
		_ = rep.String()
		for _, c := range rep.Candidates {
			if c.Skipped == "" && (c.EpochSeconds != 0 || c.MaxSentMB != 0 || c.SetupSeconds <= 0) {
				t.Fatalf("%s: epoch priced at %v s / %v MB, set-up at %v s", c.Algorithm, c.EpochSeconds, c.MaxSentMB, c.SetupSeconds)
			}
		}
		sess, err := dg.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bytesOf(res.MaxSentMB), allReduceBytes(dg, cfg); got != want {
			t.Fatalf("%s: %d B sent per epoch, want the all-reduces' %d", alg, got, want)
		}
	}
}
