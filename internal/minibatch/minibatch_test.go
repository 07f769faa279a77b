package minibatch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/graph"
	"sagnn/internal/machine"
	"sagnn/internal/opt"
)

// oneRank builds the sampled trainer on a one-rank world — the
// single-process sampled trainer — over g's Â, with cfg.Seed also seeding
// the weights.
func oneRank(g *graph.Graph, x *dense.Matrix, labels, train, dims []int, newOpt func() opt.Optimizer, cfg DistConfig) *Dist {
	return NewDist(comm.NewWorld(1, machine.Perlmutter()), distmm.UniformLayout(g.NumVertices(), 1), g.NormalizedAdjacency(),
		x, labels, train, dims, cfg.Seed, newOpt, cfg)
}

// stepLosses steps st through n epochs and returns their losses.
func stepLosses(t *testing.T, st *DistStepper, n int) []float64 {
	t.Helper()
	res, err := st.StepNCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, n)
	for e, r := range res {
		losses[e] = r.Loss
	}
	return losses
}

func TestSampleBlocksShape(t *testing.T) {
	g, _ := gen.SBM(100, 4, 8, 2, 1)
	aHat := g.NormalizedAdjacency()
	em := newEmitter(aHat, selfPositions(aHat), 3)
	blocks := make([]block, 2)
	em.sample(blocks, []int{5, 10, 15})
	// top layer outputs the batch
	if blocks[1].adj.NumRows != 3 {
		t.Fatalf("top block rows %d", blocks[1].adj.NumRows)
	}
	// the top block's columns are its interned srcs, which are the rows of
	// the bottom block; the bottom block keeps global column ids
	if blocks[1].adj.NumCols != len(blocks[1].srcs) {
		t.Fatal("cols != srcs")
	}
	if blocks[0].adj.NumRows != len(blocks[1].srcs) {
		t.Fatal("layer chaining broken")
	}
	if blocks[0].adj.NumCols != g.NumVertices() || len(blocks[0].srcs) != 0 {
		t.Fatalf("bottom block %d columns with %d interned, want the %d global ids", blocks[0].adj.NumCols, len(blocks[0].srcs), g.NumVertices())
	}
	for l := range blocks {
		adj := &blocks[l].adj
		for r := 0; r < adj.NumRows; r++ {
			// aggregation rows are convex combinations: row sums = 1
			sum := 0.0
			for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
				sum += adj.Val[p]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("layer %d row %d sums to %v", l, r, sum)
			}
			// fanout bound: ≤ fanout+1 entries per row
			if adj.RowNNZ(r) > 4 {
				t.Fatalf("layer %d row %d has %d samples, fanout+1=4", l, r, adj.RowNNZ(r))
			}
		}
	}
}

func TestMiniBatchLearnsSBM(t *testing.T) {
	g, comms := gen.SBM(256, 4, 10, 2, 5)
	rng := rand.New(rand.NewSource(6))
	x := gen.Features(rng, comms, 4, 16, 0.3)
	train := make([]int, 0, 128)
	for v := 0; v < 256; v += 2 {
		train = append(train, v)
	}
	d := oneRank(g, x, comms, train, gcn.LayerDims(16, 16, 4, 2),
		func() opt.Optimizer { return opt.NewAdam(0.01) }, DistConfig{Fanout: 5, BatchSize: 32, Seed: 7})
	st := d.Stepper()
	losses := stepLosses(t, st, 31)
	if first, last := losses[0], losses[30]; last >= first {
		t.Fatalf("minibatch loss did not decrease: %v -> %v", first, last)
	}

	test := make([]int, 0, 128)
	for v := 1; v < 256; v += 2 {
		test = append(test, v)
	}
	eval := gcn.NewSerial(g.NormalizedAdjacency(), x, comms, train, st.Model(), 0)
	if acc := eval.Accuracies(test)[0]; acc < 0.7 {
		t.Fatalf("minibatch test accuracy %v too low", acc)
	}
}

func TestMiniBatchVsFullBatch(t *testing.T) {
	// The paper's motivation: both modes reach a working model; full-batch
	// does so with deterministic full-graph SpMM. Verify both train.
	g, comms := gen.SBM(200, 4, 10, 2, 9)
	rng := rand.New(rand.NewSource(10))
	x := gen.Features(rng, comms, 4, 12, 0.3)
	train := make([]int, 0, 100)
	for v := 0; v < 200; v += 2 {
		train = append(train, v)
	}
	dims := gcn.LayerDims(12, 16, 4, 2)

	full := gcn.NewSerial(g.NormalizedAdjacency(), x, comms, train, gcn.NewModel(11, dims), 0)
	full.Opt = opt.NewAdam(0.01)
	var fullLoss float64
	for e := 0; e < 40; e++ {
		fullLoss, _, _ = full.Epoch()
	}

	d := oneRank(g, x, comms, train, dims, func() opt.Optimizer { return opt.NewAdam(0.01) },
		DistConfig{Fanout: 5, BatchSize: 25, Seed: 11})
	mbLoss := stepLosses(t, d.Stepper(), 40)[39]
	if math.IsNaN(fullLoss) || math.IsNaN(mbLoss) {
		t.Fatal("NaN loss")
	}
	if fullLoss > 1.2 || mbLoss > 1.2 {
		t.Fatalf("training failed: full %v, minibatch %v", fullLoss, mbLoss)
	}
}

// smallProblem is a 20-vertex, two-community graph with features.
func smallProblem(seed int64) (*graph.Graph, *dense.Matrix, []int) {
	g, comms := gen.SBM(20, 2, 4, 1, seed)
	rng := rand.New(rand.NewSource(1))
	return g, gen.Features(rng, comms, 2, 4, 0.3), comms
}

func TestValidationPanics(t *testing.T) {
	g, x, comms := smallProblem(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero fanout")
		}
	}()
	oneRank(g, x, comms, nil, gcn.LayerDims(4, 4, 2, 2), nil, DistConfig{Fanout: 0, BatchSize: 8, Seed: 1})
}

func TestEmptyEpochTypedError(t *testing.T) {
	g, x, comms := smallProblem(2)
	d := oneRank(g, x, comms, nil, gcn.LayerDims(4, 4, 2, 2), nil, DistConfig{Fanout: 3, BatchSize: 8, Seed: 1})
	if _, err := d.Stepper().StepNCtx(context.Background(), 1); !errors.Is(err, ErrEmptyTrainSet) {
		t.Fatalf("empty train set: got %v, want ErrEmptyTrainSet", err)
	}
}

func TestNewDefaultsOptimizer(t *testing.T) {
	g, x, comms := smallProblem(2)
	d := oneRank(g, x, comms, []int{0, 1}, gcn.LayerDims(4, 4, 2, 2), nil, DistConfig{Fanout: 3, BatchSize: 8, Seed: 1})
	if d.NewOpt == nil {
		t.Fatal("NewDist left NewOpt nil; the constructor must default it")
	}
	if sgd, ok := d.NewOpt().(*opt.SGD); !ok || sgd.LR != 0.05 {
		t.Fatalf("default optimizer %#v, want SGD{LR: 0.05}", d.NewOpt())
	}
}

// TestEpochWeightsBatchesBySize pins the per-example-mean contract: with a
// frozen model (LR 0) and a fanout covering every neighbor (sampling is then
// deterministic), an epoch split into uneven batches must report the loss of
// a single full-set batch — equal-weighting the short final batch would skew
// it by far more than the reassociated sums the two runs differ by.
func TestEpochWeightsBatchesBySize(t *testing.T) {
	g, comms := gen.SBM(60, 3, 4, 1, 3)
	rng := rand.New(rand.NewSource(4))
	x := gen.Features(rng, comms, 3, 6, 0.3)
	train := []int{0, 3, 6, 9, 12, 15, 18, 21, 24, 27} // 10 examples
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		maxDeg = max(maxDeg, len(g.Neighbors(v)))
	}
	dims := gcn.LayerDims(6, 8, 3, 2)
	frozen := func() opt.Optimizer { return &opt.SGD{LR: 0} }
	loss := func(batch int) float64 {
		d := oneRank(g, x, comms, train, dims, frozen, DistConfig{Fanout: maxDeg, BatchSize: batch, Seed: 13})
		return stepLosses(t, d.Stepper(), 1)[0]
	}
	// 10 examples in batches of 4 → sizes 4, 4, 2.
	if uneven, single := loss(4), loss(len(train)); math.Abs(uneven-single) > 1e-12*single {
		t.Fatalf("uneven-batch epoch loss %v != single-batch loss %v", uneven, single)
	}
}

// stepFixture builds the one-rank sampler over a small SBM graph with one
// step derived: its blocks, and the first layer as the reference gather
// lands it.
func stepFixture() (*Dist, *sampler, *dense.Matrix) {
	g, comms := gen.SBM(100, 4, 8, 2, 1)
	rng := rand.New(rand.NewSource(2))
	x := gen.Features(rng, comms, 4, 8, 0.3)
	train := make([]int, 0, 50)
	for v := 0; v < 100; v += 2 {
		train = append(train, v)
	}
	d := oneRank(g, x, comms, train, gcn.LayerDims(8, 8, 4, 2), nil, DistConfig{Fanout: 3, BatchSize: 16, Seed: 4})
	sm := d.newSampler()
	st := &sm.slots[0]
	sm.sample(st, 0, 0)
	return d, sm, distmm.SampledGatherReference(st.bottoms, d.Layout, d.X)[0]
}

// TestStepSteadyStateTransposeAllocs pins the reusable backward-pass
// transpose: after a warm-up has grown the per-layer workspaces, the
// transpose helper itself must not allocate, and what it leaves in the
// workspace is the block's transpose.
func TestStepSteadyStateTransposeAllocs(t *testing.T) {
	d, sm, _ := stepFixture()
	st := &sm.slots[0]
	var c chain
	c.load(st.chains[0], d.Labels, st.batches[0])
	got := c.transposed(0) // warm-up grows the workspace
	want := c.blocks[0].adj.Transpose()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols || !reflect.DeepEqual(got.ToCoords(), want.ToCoords()) {
		t.Fatal("reusable transpose differs from Transpose()")
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.transposed(0)
	})
	if allocs != 0 {
		t.Fatalf("transposed allocates %v per call after warm-up, want 0", allocs)
	}
}

// TestStepSteadyStateDenseAllocs pins the rank's share of a step: once a
// warm-up step has grown the blocks and the workspace, redrawing the same
// batch and stepping over it allocates nothing — sampling emits into reused
// CSR storage through the interning array, and every forward/backward buffer
// and the gradients are reused. (Deriving the step for the world and its
// gather plan is TestDistStepSteadyStateAllocs.)
func TestStepSteadyStateDenseAllocs(t *testing.T) {
	d, sm, landed := stepFixture()
	st := &sm.slots[0]
	model, o := gcn.NewModel(3, d.Dims), &opt.SGD{LR: 0.01}
	var (
		c  chain
		ws gcn.Workspace
	)
	c.landed = landed
	step := func() {
		sm.streams[0].draw(d, st, 0, 0, 0) // same (rank, epoch, step): same blocks every run
		c.load(st.chains[0], d.Labels, st.batches[0])
		if _, _, err := ws.Step(o, model, gcn.GCNConv, &c, nil, c.labels, len(st.batches[0]), gcn.Collective{}); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("warmed-up step allocates %v times, want 0", allocs)
	}
}
