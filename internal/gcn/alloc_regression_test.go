package gcn

import (
	"testing"
)

// TestSerialEpochSteadyStateAllocs pins the steady-state allocation count
// of one serial training epoch at zero. The graph is kept under the
// parallel-kernel thresholds (SpMM stripes at 256 rows, GEMM at 128) so no
// worker goroutines launch; with the epoch-persistent workspace every
// forward/backward buffer is reused, and a single allocation anywhere in
// the loop — a Clone, a fresh gradient matrix, a softmax temporary — fails
// this test. Before the workspace refactor one epoch at this size
// allocated every intermediate (~40 allocations).
func TestSerialEpochSteadyStateAllocs(t *testing.T) {
	a, x, labels, train := tinyProblem(9)
	dims := LayerDims(x.Cols, 8, 4, 3)
	s := NewSerial(a, x, labels, train, NewModel(3, dims), 0.1)
	s.Epoch() // builds the workspace and the lazy SGD optimizer

	if allocs := testing.AllocsPerRun(10, func() { s.Epoch() }); allocs > 0 {
		t.Fatalf("steady-state serial epoch allocates %v times, want 0", allocs)
	}
}

// TestSerialEpochSteadyStateAllocsSAGE covers the SAGEConv path, whose
// backward pass uses the split-column workspaces (dc/dp/dself).
func TestSerialEpochSteadyStateAllocsSAGE(t *testing.T) {
	a, x, labels, train := tinyProblem(9)
	dims := LayerDims(x.Cols, 8, 4, 3)
	s := NewSerial(a, x, labels, train, NewModelVariant(3, dims, SAGEConv), 0.1)
	s.Variant = SAGEConv
	s.Epoch()

	if allocs := testing.AllocsPerRun(10, func() { s.Epoch() }); allocs > 0 {
		t.Fatalf("steady-state SAGE serial epoch allocates %v times, want 0", allocs)
	}
}

// TestSerialWorkspaceRebuildsOnShapeChange guards the cached-workspace trap:
// Serial's Model and Variant are exported mutable fields, so swapping in a
// differently-shaped model after training must rebuild the workspace rather
// than panic on stale buffer shapes.
func TestSerialWorkspaceRebuildsOnShapeChange(t *testing.T) {
	a, x, labels, train := tinyProblem(11)
	s := NewSerial(a, x, labels, train, NewModel(5, LayerDims(x.Cols, 8, 4, 3)), 0.1)
	l1, _, _ := s.Epoch()

	// Swap to a wider, shallower model: shapes change everywhere.
	s.Model = NewModel(5, LayerDims(x.Cols, 12, 4, 2))
	s.Opt = nil
	l2, _, _ := s.Epoch()

	// And to the SAGE variant, which doubles the GEMM input widths.
	s.Model = NewModelVariant(5, LayerDims(x.Cols, 8, 4, 3), SAGEConv)
	s.Variant = SAGEConv
	s.Opt = nil
	l3, _, _ := s.Epoch()

	// Fresh trainers must agree exactly with the post-swap epochs.
	for i, got := range []float64{l1, l2, l3} {
		if got <= 0 {
			t.Fatalf("epoch %d produced loss %v", i, got)
		}
	}
	fresh := NewSerial(a, x, labels, train, NewModel(5, LayerDims(x.Cols, 12, 4, 2)), 0.1)
	wantL2, _, _ := fresh.Epoch()
	if l2 != wantL2 {
		t.Fatalf("post-swap epoch loss %v, fresh trainer %v", l2, wantL2)
	}
}
