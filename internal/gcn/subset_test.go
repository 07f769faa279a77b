package gcn

import (
	"math/rand"
	"testing"

	"sagnn/internal/dense"
)

// subsetCase builds a SubsetEval and the matching full-batch Serial over
// the tiny SBM problem, with a model of the given depth and variant.
func subsetCase(t *testing.T, seed int64, layers int, v Variant) (*SubsetEval, *dense.Matrix) {
	t.Helper()
	a, x, labels, train := tinyProblem(seed)
	dims := LayerDims(x.Cols, 8, 4, layers)
	model := NewModelVariant(seed+7, dims, v)
	s := NewSerial(a, x, labels, train, model, 0.1)
	s.Variant = v
	// Train a few epochs so the weights are not symmetric in any trivial way.
	trainSerial(t, s, 3)
	full := dense.New(x.Rows, dims[layers])
	s.PredictInto(full)
	return NewSubsetEval(a, x, model, v), full
}

// TestSubsetEvalBitIdentical pins the core contract: for any target set,
// the gathered L-hop forward pass reproduces exactly (bit for bit) the same
// rows a full-batch forward pass produces, for both layer variants and
// depths 1..3.
func TestSubsetEvalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, v := range []Variant{GCNConv, SAGEConv} {
		for layers := 1; layers <= 3; layers++ {
			e, full := subsetCase(t, 11, layers, v)
			n := e.A.NumRows
			sets := [][]int{
				{0},
				{n - 1},
				{3, 17, 40},
				randomSubset(rng, n, n/3),
				allVertices(n),
			}
			for _, targets := range sets {
				dst := dense.New(len(targets), e.Classes())
				e.ProbabilitiesInto(dst, targets)
				for k, vtx := range targets {
					got, want := dst.Row(k), full.Row(vtx)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("variant %v L=%d vertex %d class %d: subset %v != full %v",
								v, layers, vtx, j, got[j], want[j])
						}
					}
				}
				if e.GatheredRows() < len(targets) || e.GatheredRows() > n {
					t.Fatalf("gathered %d rows for %d targets on %d vertices", e.GatheredRows(), len(targets), n)
				}
			}
		}
	}
}

// TestSubsetEvalReuseAcrossCalls runs differently-sized requests through one
// evaluator and re-checks correctness, guarding the grow-only workspace
// against stale-shape bugs.
func TestSubsetEvalReuseAcrossCalls(t *testing.T) {
	e, full := subsetCase(t, 5, 3, SAGEConv)
	n := e.A.NumRows
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20; iter++ {
		targets := randomSubset(rng, n, 1+rng.Intn(n-1))
		dst := dense.New(len(targets), e.Classes())
		e.ProbabilitiesInto(dst, targets)
		for k, vtx := range targets {
			if got, want := dst.Row(k), full.Row(vtx); !equalExact(got, want) {
				t.Fatalf("iter %d vertex %d: %v != %v", iter, vtx, got, want)
			}
		}
	}
}

// TestSubsetEvalSteadyStateAllocs pins the warm-path allocation count of a
// repeated same-shape request at zero: frontiers, submatrix, and every
// dense buffer must be reused. The tiny graph stays under the parallel
// kernel thresholds so no worker goroutines launch.
func TestSubsetEvalSteadyStateAllocs(t *testing.T) {
	for _, v := range []Variant{GCNConv, SAGEConv} {
		e, _ := subsetCase(t, 21, 3, v)
		targets := []int{1, 9, 33}
		dst := dense.New(len(targets), e.Classes())
		e.ProbabilitiesInto(dst, targets) // warm the workspaces
		if allocs := testing.AllocsPerRun(10, func() { e.ProbabilitiesInto(dst, targets) }); allocs > 0 {
			t.Fatalf("variant %v: steady-state subset inference allocates %v times, want 0", v, allocs)
		}
	}
}

// TestSubsetEvalRejectsBadTargets covers the panic contract for malformed
// target sets (unsorted, duplicate, out of range).
func TestSubsetEvalRejectsBadTargets(t *testing.T) {
	e, _ := subsetCase(t, 2, 2, GCNConv)
	dst := dense.New(2, e.Classes())
	for _, targets := range [][]int{{5, 3}, {3, 3}, {-1, 2}, {2, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("targets %v: expected panic", targets)
				}
			}()
			e.ProbabilitiesInto(dst, targets)
		}()
	}
}

func randomSubset(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)[:k]
	out := append([]int(nil), perm...)
	sortInts(out)
	return out
}

func allVertices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

func equalExact(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
