package minibatch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/opt"
)

func TestSampleBlocksShape(t *testing.T) {
	g, comms := gen.SBM(100, 4, 8, 2, 1)
	rng := rand.New(rand.NewSource(2))
	x := gen.Features(rng, comms, 4, 8, 0.3)
	model := gcn.NewModel(3, gcn.LayerDims(8, 8, 4, 2))
	tr := New(g, x, comms, []int{0, 1, 2}, model, 3, 2, nil, 4)

	batch := []int{5, 10, 15}
	blocks := tr.sampleBlocks(batch, 2)
	if len(blocks) != 2 {
		t.Fatalf("%d blocks", len(blocks))
	}
	// top layer outputs the batch
	if blocks[1].adj.NumRows != 3 {
		t.Fatalf("top block rows %d", blocks[1].adj.NumRows)
	}
	// every block's columns match the next srcs list, rows the outputs
	if blocks[1].adj.NumCols != len(blocks[1].srcs) {
		t.Fatal("cols != srcs")
	}
	if blocks[0].adj.NumRows != len(blocks[1].srcs) {
		t.Fatal("layer chaining broken")
	}
	// aggregation rows are convex combinations: row sums = 1
	for r := 0; r < blocks[1].adj.NumRows; r++ {
		sum := 0.0
		for p := blocks[1].adj.RowPtr[r]; p < blocks[1].adj.RowPtr[r+1]; p++ {
			sum += blocks[1].adj.Val[p]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	// fanout bound: ≤ fanout+1 entries per row
	for r := 0; r < blocks[1].adj.NumRows; r++ {
		if blocks[1].adj.RowNNZ(r) > 4 {
			t.Fatalf("row %d has %d samples, fanout+1=4", r, blocks[1].adj.RowNNZ(r))
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
	model := gcn.NewModel(7, gcn.LayerDims(16, 16, 4, 2))
	tr := New(g, x, comms, train, model, 5, 32, opt.NewAdam(0.01), 8)

	first, err := tr.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for e := 0; e < 30; e++ {
		if last, err = tr.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("minibatch loss did not decrease: %v -> %v", first, last)
	}

	test := make([]int, 0, 128)
	for v := 1; v < 256; v += 2 {
		test = append(test, v)
	}
	eval := gcn.NewSerial(g.NormalizedAdjacency(), x, comms, train, model, 0)
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
	aHat := g.NormalizedAdjacency()
	dims := gcn.LayerDims(12, 16, 4, 2)

	full := gcn.NewSerial(aHat, x, comms, train, gcn.NewModel(11, dims), 0)
	full.Opt = opt.NewAdam(0.01)
	var fullLoss float64
	for e := 0; e < 40; e++ {
		fullLoss, _, _ = full.Epoch()
	}

	mb := New(g, x, comms, train, gcn.NewModel(11, dims), 5, 25, opt.NewAdam(0.01), 12)
	var mbLoss float64
	for e := 0; e < 40; e++ {
		var err error
		if mbLoss, err = mb.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if math.IsNaN(fullLoss) || math.IsNaN(mbLoss) {
		t.Fatal("NaN loss")
	}
	if fullLoss > 1.2 || mbLoss > 1.2 {
		t.Fatalf("training failed: full %v, minibatch %v", fullLoss, mbLoss)
	}
}

func TestValidationPanics(t *testing.T) {
	g, comms := gen.SBM(20, 2, 4, 1, 1)
	rng := rand.New(rand.NewSource(1))
	x := gen.Features(rng, comms, 2, 4, 0.3)
	model := gcn.NewModel(1, gcn.LayerDims(4, 4, 2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero fanout")
		}
	}()
	New(g, x, comms, nil, model, 0, 8, nil, 1)
}

func TestEmptyEpochTypedError(t *testing.T) {
	g, comms := gen.SBM(20, 2, 4, 1, 2)
	rng := rand.New(rand.NewSource(1))
	x := gen.Features(rng, comms, 2, 4, 0.3)
	model := gcn.NewModel(1, gcn.LayerDims(4, 4, 2, 2))
	tr := New(g, x, comms, nil, model, 3, 8, nil, 1)
	if _, err := tr.Epoch(); !errors.Is(err, ErrEmptyTrainSet) {
		t.Fatalf("empty train set: got %v, want ErrEmptyTrainSet", err)
	}
}

func TestNewDefaultsOptimizer(t *testing.T) {
	g, comms := gen.SBM(20, 2, 4, 1, 2)
	rng := rand.New(rand.NewSource(1))
	x := gen.Features(rng, comms, 2, 4, 0.3)
	model := gcn.NewModel(1, gcn.LayerDims(4, 4, 2, 2))
	tr := New(g, x, comms, []int{0, 1}, model, 3, 8, nil, 1)
	if tr.Opt == nil {
		t.Fatal("New left Opt nil; the constructor must default it")
	}
	if sgd, ok := tr.Opt.(*opt.SGD); !ok || sgd.LR != 0.05 {
		t.Fatalf("default optimizer %#v, want SGD{LR: 0.05}", tr.Opt)
	}
}

// TestEpochWeightsBatchesBySize pins the per-example-mean contract: with a
// frozen model (LR 0) and a fanout covering every neighbor (sampling is then
// deterministic), an epoch split into uneven batches must report exactly the
// loss of a single full-set batch — equal-weighting the short final batch
// would skew it.
func TestEpochWeightsBatchesBySize(t *testing.T) {
	g, comms := gen.SBM(60, 3, 4, 1, 3)
	rng := rand.New(rand.NewSource(4))
	x := gen.Features(rng, comms, 3, 6, 0.3)
	train := []int{0, 3, 6, 9, 12, 15, 18, 21, 24, 27} // 10 examples
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := len(g.Neighbors(v)); d > maxDeg {
			maxDeg = d
		}
	}
	dims := gcn.LayerDims(6, 8, 3, 2)
	frozen := &opt.SGD{LR: 0}
	// 10 examples in batches of 4 → sizes 4, 4, 2.
	uneven := New(g, x, comms, train, gcn.NewModel(13, dims), maxDeg, 4, frozen, 5)
	unevenLoss, err := uneven.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	single := New(g, x, comms, train, gcn.NewModel(13, dims), maxDeg, len(train), frozen, 5)
	singleLoss, err := single.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if unevenLoss != singleLoss {
		t.Fatalf("uneven-batch epoch loss %v != single-batch loss %v", unevenLoss, singleLoss)
	}
}

// stepFixture builds a trainer over a small SBM graph and one fixed batch.
func stepFixture() (*Trainer, []int) {
	g, comms := gen.SBM(100, 4, 8, 2, 1)
	rng := rand.New(rand.NewSource(2))
	x := gen.Features(rng, comms, 4, 8, 0.3)
	train := make([]int, 0, 50)
	for v := 0; v < 100; v += 2 {
		train = append(train, v)
	}
	model := gcn.NewModel(3, gcn.LayerDims(8, 8, 4, 2))
	return New(g, x, comms, train, model, 3, 16, &opt.SGD{LR: 0.01}, 4), train[:16]
}

// TestStepSteadyStateTransposeAllocs pins the reusable backward-pass
// transpose: after a warm-up has grown the per-layer workspaces, the
// transpose helper itself must not allocate, and what it leaves in the
// workspace is the block's transpose.
func TestStepSteadyStateTransposeAllocs(t *testing.T) {
	tr, batch := stepFixture()
	c := &tr.chain
	c.blocks = tr.sampleBlocks(batch, tr.Model.Layers())
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

// TestStepSteadyStateDenseAllocs pins the whole step: once a warm-up step has
// grown the blocks and the workspace, a step over the same batch allocates
// nothing — sampling emits into reused CSR storage through the interning
// array, and every forward/backward buffer, the gathered input and the
// gradients are reused. (The parent allocated 109 times per step on this
// fixture, all of it sampling: maps, coordinate lists, one CSR per layer.)
func TestStepSteadyStateDenseAllocs(t *testing.T) {
	tr, batch := stepFixture()
	step := func() {
		tr.em.rng.Seed(9) // same blocks every run
		if _, err := tr.Step(batch); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("warmed-up step allocates %v times, want 0", allocs)
	}
}
