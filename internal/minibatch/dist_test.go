package minibatch

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/graph"
	"sagnn/internal/machine"
	"sagnn/internal/opt"
)

// distFixture builds a 4-rank distributed sampled trainer over a ring
// graph; newOpt selects the shared optimizer family (nil → SGD default).
func distFixture(seed int64, exec distmm.ExecMode, newOpt func() opt.Optimizer) *Dist {
	const n, f, classes, p = 64, 8, 4, 4
	edges := make([][2]int, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n}, [2]int{v, (v + 7) % n})
	}
	g := graph.FromEdges(n, edges).Symmetrize()
	aHat := g.NormalizedAdjacency()
	x := dense.NewRandom(rand.New(rand.NewSource(seed)), n, f, 1)
	labels := make([]int, n)
	train := make([]int, 0, n)
	for v := 0; v < n; v++ {
		labels[v] = v % classes
		if v%2 == 0 {
			train = append(train, v)
		}
	}
	world := comm.NewWorld(p, machine.Perlmutter())
	layout := distmm.UniformLayout(n, p)
	dims := gcn.LayerDims(f, 8, classes, 2)
	return NewDist(world, layout, aHat, x, labels, train, dims, seed, newOpt,
		DistConfig{Fanout: 3, BatchSize: 4, Seed: seed, Exec: exec})
}

// TestDistSampledMatchesReference pins the tentpole's conformance contract:
// distributed sampled epochs are bit-identical to the serial sampled
// reference, in both plan exec modes and for both optimizer families.
func TestDistSampledMatchesReference(t *testing.T) {
	const epochs = 3
	opts := map[string]func() opt.Optimizer{
		"sgd":  nil,
		"adam": func() opt.Optimizer { return opt.NewAdam(0.01) },
	}
	for name, newOpt := range opts {
		want := distFixture(3, distmm.ExecSequential, newOpt).ReferenceEpochs(epochs)
		for _, exec := range []distmm.ExecMode{distmm.ExecSequential, distmm.ExecOverlap} {
			st := distFixture(3, exec, newOpt).Stepper()
			got, err := st.StepNCtx(context.Background(), epochs)
			if err != nil {
				t.Fatalf("%s exec %v: %v", name, exec, err)
			}
			for e := range got {
				if got[e] != want[e] {
					t.Fatalf("%s exec %v epoch %d: distributed %+v != reference %+v",
						name, exec, e, got[e], want[e])
				}
			}
		}
	}
}

// TestDistSampledPredictedVolumesExact pins the ledger contract: the
// per-rank traffic the stepper predicts from Plan.Volumes plus the explicit
// all-reduce model equals what comm.Stats measures, to the byte and message.
func TestDistSampledPredictedVolumesExact(t *testing.T) {
	d := distFixture(5, distmm.ExecSequential, nil)
	st := d.Stepper()
	if _, err := st.StepNCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	pred := st.PredictedVolumes()
	for rank := 0; rank < d.World.P; rank++ {
		if got, want := d.World.Stats().BytesSent(rank), pred[rank].SentBytes; got != want {
			t.Errorf("rank %d: sent %d, predicted %d", rank, got, want)
		}
		if got, want := d.World.Stats().BytesRecv(rank), pred[rank].RecvBytes; got != want {
			t.Errorf("rank %d: recv %d, predicted %d", rank, got, want)
		}
		if got, want := d.World.Stats().MsgsSent(rank), pred[rank].MsgsSent; got != want {
			t.Errorf("rank %d: %d msgs, predicted %d", rank, got, want)
		}
	}
}

// TestDistSampledFaultRetryBitIdentical is the chaos case: a fault injected
// mid-sampled-epoch surfaces as a typed error, the trainer refuses to step
// while dirty, and a checkpoint rollback replays the remaining epochs
// bit-identically — sampling streams depend only on absolute (rank, epoch,
// step), never on how many attempts it took to get there.
func TestDistSampledFaultRetryBitIdentical(t *testing.T) {
	ctx := context.Background()
	clean, err := distFixture(7, distmm.ExecSequential, nil).Stepper().StepNCtx(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}

	d := distFixture(7, distmm.ExecSequential, nil)
	st := d.Stepper()
	first, err := st.StepNCtx(ctx, 1)
	if err != nil || first[0] != clean[0] {
		t.Fatalf("pre-fault epoch: %+v, %v (want %+v)", first, err, clean[0])
	}
	saved := st.Model().Clone()
	savedEpoch := st.Epoch()

	d.World.InjectFault(comm.Fault{Rank: 1, AfterOps: 5})
	if _, err := st.StepNCtx(ctx, 2); !errors.Is(err, comm.ErrInjectedFault) {
		t.Fatalf("faulted epoch returned %v, want ErrInjectedFault", err)
	}
	if !st.Dirty() {
		t.Fatal("trainer not dirty after aborted epoch")
	}
	if _, err := st.StepNCtx(ctx, 1); !errors.Is(err, gcn.ErrInconsistent) {
		t.Fatalf("dirty step returned %v, want ErrInconsistent", err)
	}

	if err := st.SetModel(saved); err != nil {
		t.Fatal(err)
	}
	st.SetEpoch(savedEpoch)
	retry, err := st.StepNCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := range retry {
		if retry[e] != clean[e+1] {
			t.Fatalf("epoch %d: retry %+v != clean %+v", e+1, retry[e], clean[e+1])
		}
	}
}

// TestDistSampledEmptyTrainSet pins the typed-error contract of the
// distributed trainer, matching the serial Epoch fix.
func TestDistSampledEmptyTrainSet(t *testing.T) {
	d := distFixture(2, distmm.ExecSequential, nil)
	d.Train = nil
	for b := range d.trainOf {
		d.trainOf[b] = nil
	}
	if _, err := d.Stepper().StepNCtx(context.Background(), 1); !errors.Is(err, ErrEmptyTrainSet) {
		t.Fatalf("got %v, want ErrEmptyTrainSet", err)
	}
}

// retrain restricts d's training set to the vertices keep accepts, the way
// NewDist would have split it.
func retrain(d *Dist, keep func(v int) bool) *Dist {
	var train []int
	trainOf := make([][]int, d.World.P)
	for _, v := range d.Train {
		if keep(v) {
			train = append(train, v)
			trainOf[d.Layout.Owner(v)] = append(trainOf[d.Layout.Owner(v)], v)
		}
	}
	d.Train, d.trainOf = train, trainOf
	return d
}

// TestDistSampledUnevenTrainSkew forces one rank to run out of batches
// before the others (all training vertices live in the first half of the
// vertex space) and checks the collective still conforms to the reference —
// the empty-frontier ranks must keep participating in every collective.
func TestDistSampledUnevenTrainSkew(t *testing.T) {
	mk := func(exec distmm.ExecMode) *Dist {
		// ranks 2 and 3 own no training vertices
		return retrain(distFixture(11, exec, nil), func(v int) bool { return v < 24 })
	}
	want := mk(distmm.ExecSequential).ReferenceEpochs(2)
	got, err := mk(distmm.ExecOverlap).Stepper().StepNCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := range got {
		if got[e] != want[e] {
			t.Fatalf("epoch %d: distributed %+v != reference %+v", e, got[e], want[e])
		}
	}
}

// raggedFixture is distFixture with batches of 2 over 8, 5, 2 and 0 training
// vertices on ranks 0..3: four collective steps per epoch, ranks dropping
// out one by one — enough steps for both step slots to be rewritten within
// an epoch and across the epoch boundary.
func raggedFixture(seed int64, exec distmm.ExecMode) *Dist {
	d := distFixture(seed, exec, nil)
	d.Cfg.BatchSize = 2
	limit := []int{16, 26, 36, 0} // exclusive bound on each rank's (even) training vertices
	return retrain(d, func(v int) bool { return v < limit[d.Layout.Owner(v)] })
}

// TestDistSampledDerivesEachStepOnce pins the sharing contract: a process
// derives every (epoch, step) once however many ranks it hosts (the parent
// derived it once per hosted rank, and inside each of those once more per
// peer), the shared steps still train to the reference's bits, and the
// prediction still matches the measured traffic.
func TestDistSampledDerivesEachStepOnce(t *testing.T) {
	const epochs, steps = 3, 4
	for _, exec := range []distmm.ExecMode{distmm.ExecSequential, distmm.ExecOverlap} {
		d := raggedFixture(13, exec)
		if got := d.stepsPerEpoch(); got != steps {
			t.Fatalf("fixture has %d steps per epoch, want %d", got, steps)
		}
		want := raggedFixture(13, exec).ReferenceEpochs(epochs)
		st := d.Stepper()
		before := Derivations()
		got, err := st.StepNCtx(context.Background(), epochs)
		if err != nil {
			t.Fatal(err)
		}
		if n := Derivations() - before; n != epochs*steps {
			t.Fatalf("exec %v: %d derivations for %d epochs x %d steps on %d hosted ranks, want %d",
				exec, n, epochs, steps, d.World.P, epochs*steps)
		}
		for e := range got {
			if got[e] != want[e] {
				t.Fatalf("exec %v epoch %d: distributed %+v != reference %+v", exec, e, got[e], want[e])
			}
		}
		for rank, pred := range st.PredictedVolumes() {
			if sent := d.World.Stats().BytesSent(rank); sent != pred.SentBytes {
				t.Fatalf("exec %v rank %d: sent %d, predicted %d", exec, rank, sent, pred.SentBytes)
			}
		}
	}
}

// TestDistSampledFaultSweep injects a fault at every communication op site
// of one multi-step epoch, in both exec modes: each surfaces as a typed
// *comm.RankError, the rollback replays the epoch to the clean run's bits
// re-deriving no more than the steps it replays, and the derivation workers
// leave no goroutine behind.
func TestDistSampledFaultSweep(t *testing.T) {
	ctx := context.Background()
	baseGoroutines := runtime.NumGoroutine()
	for _, exec := range []distmm.ExecMode{distmm.ExecSequential, distmm.ExecOverlap} {
		d := raggedFixture(17, exec)
		steps := int64(d.stepsPerEpoch())
		st := d.Stepper()
		clean, err := st.StepNCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		saved := st.Model().Clone()
		next, err := st.StepNCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, next...)
		sites := d.World.Ops(1)
		if sites < 4*steps { // a gather, a loss pair and two gradients per step
			t.Fatalf("clean epoch recorded %d comm ops on rank 1", sites)
		}
		rollback := func() {
			if err := st.SetModel(saved); err != nil {
				t.Fatal(err)
			}
			st.SetEpoch(1)
		}
		for site := int64(1); site <= sites; site++ {
			rollback()
			d.World.InjectFault(comm.Fault{Rank: 1, AfterOps: site})
			_, err := st.StepNCtx(ctx, 1)
			var re *comm.RankError
			if !errors.As(err, &re) || !errors.Is(err, comm.ErrInjectedFault) {
				t.Fatalf("exec %v site %d: got %v, want *RankError wrapping ErrInjectedFault", exec, site, err)
			}
			rollback()
			before := Derivations()
			retry, err := st.StepNCtx(ctx, 1)
			if err != nil {
				t.Fatalf("exec %v site %d: retry: %v", exec, site, err)
			}
			if retry[0] != clean[1] {
				t.Fatalf("exec %v site %d: retry %+v != clean %+v", exec, site, retry[0], clean[1])
			}
			// The aborted launch's last derived step is still held; it is
			// reused only when it is the first one replayed.
			if n := Derivations() - before; n != steps && n != steps-1 {
				t.Fatalf("exec %v site %d: retry derived %d steps to replay %d", exec, site, n, steps)
			}
		}
	}
	// Overlap workers close via finalizer once their gathers are unreachable;
	// give the collector a bounded window to converge back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseGoroutines+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d across the fault sweep", baseGoroutines, runtime.NumGoroutine())
}

// TestDistStepSteadyStateAllocs pins what a warmed distributed step
// allocates: deriving a step — P sampling streams, P block chains, the
// batches — adds only the closures of the P goroutines it fans out on and
// the wait group they share (10 for the two derivations measured) to what
// compiling the gather plan from the same bottoms and verifying it cost on
// their own; sampling itself adds none.
func TestDistStepSteadyStateAllocs(t *testing.T) {
	d := raggedFixture(19, distmm.ExecSequential)
	sm := d.newSampler()
	for s := 0; s < 4; s++ { // grow both slots: even steps land in one, odd in the other
		sm.step(0, s)
	}
	derive := func() {
		sm.step(0, 0)
		sm.step(0, 1)
	}
	derive() // the slots now hold the two steps every later run re-derives
	recompile := testing.AllocsPerRun(20, func() {
		for i := range sm.slots {
			sm.gather.Recompile(sm.slots[i].bottoms)
			if err := distmm.Verify(sm.gather.Plan()); err != nil {
				t.Fatal(err)
			}
		}
	})
	const fanOut = 2 * (4 + 1) // per derivation: P = 4 closures and the wait group
	if allocs := testing.AllocsPerRun(20, derive); allocs > recompile+fanOut {
		t.Fatalf("two warmed derivations allocate %v times, recompiling their gathers %v: want at most %v more", allocs, recompile, fanOut)
	}
}
