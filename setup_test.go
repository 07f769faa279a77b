package sagnn

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
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
	dims := gcn.LayerDims(g.input.X.Cols, cfg.Hidden, g.ds.Classes, cfg.Layers)
	size := g.engine.GradGroup(0).Size()
	total, _, _ := comm.AllReduceVolume(2, size)
	for l := 0; l+1 < len(dims); l++ {
		s, _, _ := comm.AllReduceVolume(dims[l]*dims[l+1], size)
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
		{"sa-1.5d", DistOpts{Algorithm: SparsityAware15D, Replication: 2}, ModelConfig{Seed: 7}},
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

// TestPriceEpochMatchesExecuted: PriceEpoch is what a one-epoch Session.Run
// reports, without the run. Volumes and phase sets must match exactly and
// seconds to rounding (the run's are differences of ledger snapshots), on
// every scheme of the paper's Figures 3, 6 and 7 — oblivious, sparsity-aware,
// +METIS and +GVB, in 1D and 1.5D — plus a 4-layer model.
func TestPriceEpochMatchesExecuted(t *testing.T) {
	type row struct {
		name string
		ds   *Dataset
		p    int
		opts DistOpts
		cfg  ModelConfig
	}
	var rows []row
	for _, preset := range []Preset{RedditSim, ProteinSim} {
		ds := MustLoadDataset(preset, 42, 64)
		for _, p := range []int{4, 8, 16} {
			for _, c := range []int{1, 2} {
				obl, sa := Oblivious1D, SparsityAware1D
				if c > 1 {
					obl, sa = Oblivious15D, SparsityAware15D
				}
				for _, s := range []struct {
					name string
					alg  Algorithm
					pt   Partitioner
				}{{"CAGNET", obl, nil}, {"SA", sa, nil}, {"SA+METIS", sa, NewMetis(42)}, {"SA+GVB", sa, NewGVB(42)}} {
					rows = append(rows, row{fmt.Sprintf("%s/p=%d/c=%d/%s", preset, p, c, s.name), ds, p,
						DistOpts{Algorithm: s.alg, Replication: c, Partitioner: s.pt}, ModelConfig{}})
				}
			}
		}
	}
	protein := MustLoadDataset(ProteinSim, 42, 64)
	rows = append(rows,
		row{"4-layers", protein, 8, DistOpts{Algorithm: SparsityAware15D, Replication: 2, Partitioner: NewGVB(42)}, ModelConfig{Hidden: 8, Layers: 4}})
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, tc := range rows {
		cluster, err := NewCluster(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cluster.Distribute(tc.ds, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		priced, err := dg.PriceEpoch(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dg.NewSession(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ran := res.EpochPrice
		if priced.MaxSentMB != ran.MaxSentMB || priced.AvgSentMB != ran.AvgSentMB || priced.TotalRecvMB != ran.TotalRecvMB ||
			priced.SetupMaxSentMB != ran.SetupMaxSentMB {
			t.Errorf("%s: priced volumes %+v, executed %+v", tc.name, *priced, ran)
		}
		if !near(priced.EpochSeconds, ran.EpochSeconds) || !near(priced.SetupSeconds, ran.SetupSeconds) {
			t.Errorf("%s: priced epoch %v s + set-up %v s, executed %v s + %v s",
				tc.name, priced.EpochSeconds, priced.SetupSeconds, ran.EpochSeconds, ran.SetupSeconds)
		}
		if len(priced.Breakdown) != len(ran.Breakdown) {
			t.Errorf("%s: priced phases %v, executed %v", tc.name, priced.Breakdown, ran.Breakdown)
		}
		for ph, sec := range ran.Breakdown {
			if got, ok := priced.Breakdown[ph]; !ok || !near(got, sec) {
				t.Errorf("%s: phase %s priced %v s, executed %v s", tc.name, ph, got, sec)
			}
		}
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
			if len(res.History) != 0 || sess.Epoch() != 0 {
				t.Fatalf("rank %d op %d: aborted set-up left %d epochs, epoch counter %d",
					rank, op, len(res.History), sess.Epoch())
			}
			for r := 0; r < 4; r++ {
				if dg.input.Block(r) != nil {
					t.Fatalf("rank %d op %d: rank %d's block of Â·X survived the aborted launch", rank, op, r)
				}
			}
			// Under a context that cannot be cancelled Run takes no rollback
			// point, so a replica left inconsistent fails this retry.
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
			// The recorder rank enters the aborted launch's first panel
			// before any op and stops where the abort catches it: a
			// non-empty prefix of the set-up's panels, then every panel of
			// the replay, then the epochs.
			setup := distmm.SetupWidths(dg.input.X.Cols)
			cfg := ModelConfig{}.withDefaults() // setupFixture's shape
			perEpoch := gcn.EpochMultiplyWidths(dg.input.X.Cols, cfg.Hidden, dg.ds.Classes, cfg.Layers, false)
			seen := (*wide)[:len(*wide)-epochs*len(perEpoch)]
			aborted := len(seen) - len(setup)
			if aborted < 1 || aborted > len(setup) || !slices.Equal(seen[:aborted], setup[:aborted]) || !slices.Equal(seen[aborted:], setup) {
				t.Fatalf("rank %d op %d: set-up multiplies under recovery at %v, want a prefix of the panels %v and then all of them", rank, op, seen, setup)
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
	if len(res.History) != 0 || dg.input.Block(0) != nil {
		t.Fatalf("cancelled set-up left %d epochs, cached=%v", len(res.History), dg.input.Block(0) != nil)
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

	sess := sampledSession(t)
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
		ds := sess.dg.ds
		accs := accuracy(t, res.Model, ds, ds.Val, ds.Test)
		if got := [2]uint64{math.Float64bits(accs[0]), math.Float64bits(accs[1])}; got != wantEval[leg] {
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

// TestHeldOutEvaluatorSharedAcrossSessions: every run's model on a graph —
// whatever its shape — evaluates over the dataset's one Â·X, and reports
// what a fresh graph's run's model would.
func TestHeldOutEvaluatorSharedAcrossSessions(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	opts := DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}
	cfgs := []ModelConfig{{Seed: 7}, {Seed: 9, Hidden: 8, Layers: 2}, {Seed: 7}}

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
		accs := accuracy(t, res.Model, ds, ds.Val, ds.Test)
		if got := InferenceProduct(res.Model); got == nil || got != ds.InputProduct() {
			t.Fatalf("session %d: evaluated over Â·X %p, not the dataset's %p", i, got, ds.InputProduct())
		}
		fresh, _ := trainVia(t, ds, 4, opts, cfg, 3)
		if want := accuracy(t, fresh.Model, ds, ds.Val, ds.Test); !slices.Equal(accs, want) {
			t.Fatalf("session %d: shared evaluator reports %v, a fresh graph's %v", i, accs, want)
		}
	}
}

// TestRunBuildsNoEvaluator: training evaluates nothing. No result of Run,
// RunSampled, RunSerial or RunMiniBatch — nor of any rank of a TCP
// cluster — has built an inference evaluator when it is returned: a
// held-out accuracy is computed only when a caller asks its Model
// (Accuracy).
func TestRunBuildsNoEvaluator(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	cfg := ModelConfig{Seed: 7}
	noEvaluator := func(what string, m *Model) error {
		if InferenceProduct(m) != nil {
			return fmt.Errorf("%s: the result's model holds an inference evaluator", what)
		}
		return nil
	}
	// train runs one full-batch and then one sampled epoch on a fresh
	// session, checking each result as it is returned; a TCP rank runs both
	// whatever it finds, so that no peer waits on it.
	train := func(cl *Cluster) error {
		dg, err := cl.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)})
		if err != nil {
			return err
		}
		sess, err := dg.NewSession(cfg)
		if err != nil {
			return err
		}
		var found error
		for _, run := range []struct {
			name string
			run  func(context.Context, int) (*TrainResult, error)
		}{{"Run", sess.Run}, {"RunSampled", sess.RunSampled}} {
			res, err := run.run(context.Background(), 1)
			if err != nil {
				return err
			}
			found = errors.Join(found, noEvaluator(run.name, res.Model))
		}
		return found
	}

	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := train(cluster); err != nil {
		t.Error(err)
	}
	serial, err := RunSerial(ds, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := noEvaluator("RunSerial", serial.Model); err != nil {
		t.Error(err)
	}
	mb, err := RunMiniBatch(ds, 1, cfg, SamplingConfig{Fanout: 3, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := noEvaluator("RunMiniBatch", mb.Model); err != nil {
		t.Error(err)
	}

	for i, err := range onTCPRanks(t, 4, func(_ int, cl *Cluster) error { return train(cl) }) {
		if err != nil {
			t.Errorf("tcp rank %d: %v", i, err)
		}
	}
}

// onTCPRanks runs fn on every rank of a p-rank loopback TCP cluster, each
// rank in its own goroutine, then closes every rank's cluster and returns
// each rank's error.
func onTCPRanks(t *testing.T, p int, fn func(rank int, cl *Cluster) error) []error {
	t.Helper()
	addrs := freeAddrs(t, p)
	errs := make([]error, p)
	clusters := make([]*Cluster, p)
	var wg sync.WaitGroup
	for i := range clusters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if clusters[i], errs[i] = NewTCPCluster(i, addrs); errs[i] == nil {
				errs[i] = fn(i, clusters[i])
			}
		}(i)
	}
	wg.Wait()
	for _, cl := range clusters {
		if cl != nil {
			wg.Add(1)
			go func(cl *Cluster) { defer wg.Done(); cl.Close() }(cl)
		}
	}
	wg.Wait()
	return errs
}

// TestWarmRunAllocatesNoEvaluator: a warmed session's run allocates no
// inference evaluator (measured 62–79 KB a run on protein-sim ÷16, 61–71
// KB when each run still evaluated through an evaluator it took over from
// the last, 2.5 MB at ÷16 and 9.8 MB at ÷4 when each built its own), and
// every result — an older one after later runs, and one that
// predicts while the session runs — predicts what a fresh copy of its
// weights does, bit for bit.
func TestWarmRunAllocatesNoEvaluator(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 16)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *TrainResult {
		res, err := sess.Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	probs := func(m *Model) []uint64 {
		rows, err := m.Probabilities(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, row := range rows {
			for _, v := range row {
				bits = append(bits, math.Float64bits(v))
			}
		}
		return bits
	}
	first := run()
	firstBits := probs(first.Model)
	second := run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	third := run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 512<<10 {
		t.Errorf("a warmed session's run allocated %d bytes, want ≤ 512 KB", got)
	}
	if !slices.Equal(probs(first.Model), firstBits) {
		t.Fatal("an older result predicts differently after later runs")
	}
	for i, res := range []*TrainResult{second, third} {
		if !slices.Equal(probs(res.Model), probs(res.Model.Clone())) {
			t.Fatalf("result %d predicts differently from a fresh copy of its weights", i+2)
		}
	}

	// An older result may be predicting while the session runs.
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < 20 && err == nil; i++ {
			_, err = third.Model.Predict(ds, []int{i, 100 + i})
		}
		done <- err
	}()
	fourth := run()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(probs(fourth.Model), probs(fourth.Model.Clone())) {
		t.Fatal("a result trained while another predicted predicts differently from a fresh copy of its weights")
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
// multiply is Â·X, so its epochs exchange nothing but the all-reduces, and
// its priced epoch has no multiply phase and sends the all-reduces' bytes —
// on the explicit and the auto path alike.
func TestSingleLayerModelHasNoEpochMultiplies(t *testing.T) {
	ds := autoDS()
	cfg := ModelConfig{Layers: 1}
	for _, alg := range []Algorithm{SparsityAware1D, AlgorithmAuto} {
		cluster, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cluster.Distribute(ds, DistOpts{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		price, err := dg.PriceEpoch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range []string{"bcast", "alltoall"} {
			if v, ok := price.Breakdown[ph]; ok {
				t.Fatalf("%s: a one-layer epoch priced a %s phase of %v s", alg, ph, v)
			}
		}
		if got, want := bytesOf(price.MaxSentMB), allReduceBytes(dg, cfg); got != want || price.SetupSeconds <= 0 {
			t.Fatalf("%s: epoch priced at %d B sent, want the all-reduces' %d; set-up at %v s", alg, got, want, price.SetupSeconds)
		}
		// Below one layer there is no model: an error, not a panic.
		if _, err := dg.PriceEpoch(ModelConfig{Layers: -1}); err == nil {
			t.Fatalf("%s: PriceEpoch accepted a negative layer count", alg)
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

// featureCopies walks everything reachable from roots — past *comm.World,
// whose transport state other goroutines may be writing — and lists every
// dense matrix as wide as x that neither views x's storage nor is one of
// keep: a copy of the features, in whatever order.
func featureCopies(x *dense.Matrix, keep []*dense.Matrix, roots ...any) []string {
	matrix, world := reflect.TypeOf(x), reflect.TypeOf((*comm.World)(nil))
	lo := reflect.ValueOf(x.Data).Pointer()
	hi := lo + uintptr(cap(x.Data))*8
	kept := map[uintptr]bool{}
	for _, m := range keep {
		kept[reflect.ValueOf(m.Data).Pointer()] = true
	}
	type visit struct {
		p uintptr
		t reflect.Type
	}
	seen := map[visit]bool{}
	var found []string
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || v.Type() == world || seen[visit{v.Pointer(), v.Type()}] {
				return
			}
			seen[visit{v.Pointer(), v.Type()}] = true
			if v.Type() != matrix {
				walk(v.Elem())
				return
			}
			m := v.Elem()
			data := m.FieldByName("Data")
			if p := data.Pointer(); m.FieldByName("Cols").Int() == int64(x.Cols) && data.Len() > 0 && (p < lo || p >= hi) && !kept[p] {
				found = append(found, fmt.Sprintf("%d×%d", m.FieldByName("Rows").Int(), x.Cols))
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if k := v.Type().Elem().Kind(); k >= reflect.Bool && k <= reflect.Complex128 || k == reflect.String {
				return // no pointers to follow
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	for _, r := range roots {
		walk(reflect.ValueOf(r))
	}
	return found
}

// products returns the copies of Â·X a graph and its sessions may hold: the
// blocks the ranks this process hosts computed.
func products(g *DistGraph) []*dense.Matrix {
	var blocks []*dense.Matrix
	for _, r := range g.cluster.world.Hosted() {
		if b := g.input.Block(r); b != nil {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// TestFullBatchGraphHoldsFeaturesOnce: a partitioned graph trains
// full-batch from the dataset's own feature matrix. After Distribute and a
// first run, nothing the graph or its session reaches holds a matrix as
// wide as the features but the dataset's and the blocks of Â·X — the set-up
// gathers its panels straight from the dataset's rows — and no sampled copy
// exists.
func TestFullBatchGraphHoldsFeaturesOnce(t *testing.T) {
	ds := MustLoadDataset(RedditSim, 42, 4)
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if dg.input.Block(0) == nil {
		t.Fatal("the first run computed no Â·X")
	}
	if copies := featureCopies(ds.Features, products(dg), dg, sess); len(copies) > 0 {
		t.Fatalf("the graph and its session hold feature copies %v beside the dataset's %d×%d", copies, ds.Features.Rows, ds.Features.Cols)
	}
	if dg.sampledX != nil {
		t.Fatal("a full-batch run built the sampled features")
	}
}

// TestTCPDistGraphHoldsItsBlock: a full-batch rank of a TCP cluster holds no
// feature rows of its own — Â·X reads the dataset's — and the features its
// first sampled run builds are exactly its own block's rows, (hi − lo) × f
// elements equal to the simulated cluster's (permuted from the dataset
// under a partitioner, a view of it without one), where a simulated cluster
// builds every row. Both train full-batch and sampled to the same bits.
func TestTCPDistGraphHoldsItsBlock(t *testing.T) {
	ds := MustLoadDataset(ProteinSim, 42, 64)
	n, f := ds.G.NumVertices(), ds.FeatureDim()
	for _, tc := range []struct {
		name    string
		opts    DistOpts
		sampled bool
	}{
		{"sa-1d+gvb", DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(42)}, true},
		{"oblivious-1d", DistOpts{Algorithm: Oblivious1D}, true},
		{"sa-1.5d+gvb", DistOpts{Algorithm: SparsityAware15D, Replication: 2, Partitioner: NewGVB(42)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ModelConfig{Seed: 7}
			// run trains full-batch, checks the graph still holds no feature
			// rows, then trains sampled when the case does.
			run := func(dg *DistGraph, s *Session) ([]EpochResult, error) {
				res, err := s.Run(context.Background(), 2)
				if err != nil {
					return nil, err
				}
				if copies := featureCopies(ds.Features, products(dg), dg, s); len(copies) > 0 || dg.sampledX != nil {
					return nil, fmt.Errorf("after full-batch training the graph holds feature copies %v (sampled copy built: %t)", copies, dg.sampledX != nil)
				}
				hist := res.History
				if tc.sampled {
					if res, err = s.RunSampled(context.Background(), 2); err != nil {
						return nil, err
					}
					hist = append(hist, res.History...)
				}
				return hist, nil
			}
			cluster, err := NewCluster(4)
			if err != nil {
				t.Fatal(err)
			}
			simDG, err := cluster.Distribute(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			simSess, err := simDG.NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(simDG, simSess)
			if err != nil {
				t.Fatal(err)
			}
			if got := simDG.sampledX; tc.sampled && (got.Rows != n || len(got.Data) != n*f) {
				t.Fatalf("a simulated cluster's sampled features hold %d elements in %d rows, want all %d × %d", len(got.Data), got.Rows, n, f)
			}

			hists := make([][]EpochResult, 4)
			errs := onTCPRanks(t, 4, func(i int, cl *Cluster) error {
				dg, err := cl.Distribute(ds, tc.opts)
				if err != nil {
					return err
				}
				sess, err := dg.NewSession(cfg)
				if err != nil {
					return err
				}
				if hists[i], err = run(dg, sess); err != nil || !tc.sampled {
					return err
				}
				lo, hi := dg.layout.Range(dg.engine.BlockOf(i))
				if x := dg.sampledX; x.Rows != hi-lo || len(x.Data) != (hi-lo)*f {
					return fmt.Errorf("sampled features hold %d elements in %d rows, want its block's %d × %d", len(x.Data), x.Rows, hi-lo, f)
				}
				for r := lo; r < hi; r++ {
					if !slices.Equal(dg.sampledX.Row(r-lo), simDG.sampledX.Row(r)) {
						return fmt.Errorf("sampled feature row %d differs from the simulated cluster's", r)
					}
				}
				return nil
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", i, err)
				}
				sameHistory(t, fmt.Sprintf("tcp rank %d", i), hists[i], want)
			}
		})
	}
}
