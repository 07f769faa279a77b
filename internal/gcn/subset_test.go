package gcn

import (
	"math/rand"
	"testing"

	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/graph"
	"sagnn/internal/sparse"
)

// subsetCase builds a SubsetEval and the matching full-batch probabilities
// of the serial trainer's own operand over the tiny SBM problem, with a
// model of the given depth and variant.
func subsetCase(t *testing.T, seed int64, layers int, v Variant) (*SubsetEval, *dense.Matrix) {
	t.Helper()
	a, x, labels, train := tinyProblem(seed)
	dims := LayerDims(x.Cols, 8, 4, layers)
	model := NewModelVariant(seed+7, dims, v)
	s := NewSerial(a, x, labels, train, model, 0.1)
	s.Variant = v
	// Train a few epochs so the weights are not symmetric in any trivial way.
	trainSerial(t, s, 3)
	return NewSubsetEval(a, x, model, v), serialProbabilities(s)
}

// serialProbabilities is the full-batch reference: a copy of the serial
// trainer's inference pass over the whole Â.
func serialProbabilities(s *Serial) *dense.Matrix {
	return s.ws.Probabilities(s.Model, s.Variant, &s.op).Clone()
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

// FuzzSubsetForward fuzzes the one forward over the frontier operand: for a
// drawn graph (ER, SBM or star), variant, depth and target set, the subset
// rows equal the serial trainer's full-batch rows bit for bit, and
// GatheredRows is |front_1|, the (L−1)-hop neighbourhood a BFS over Â finds.
func FuzzSubsetForward(f *testing.F) {
	f.Add(int64(1), uint8(0), false, uint8(2), uint16(3))
	f.Add(int64(2), uint8(1), true, uint8(3), uint16(20))
	f.Add(int64(3), uint8(2), true, uint8(2), uint16(1))
	f.Add(int64(4), uint8(2), false, uint8(3), uint16(47))
	f.Fuzz(func(t *testing.T, seed int64, family uint8, sage bool, depth uint8, size uint16) {
		const n = 48
		var g *graph.Graph
		switch family % 3 {
		case 0:
			g = gen.ErdosRenyi(n, 3, seed)
		case 1:
			g, _ = gen.SBM(n, 3, 6, 1, seed)
		default:
			edges := make([][2]int, 0, n-1)
			for v := 1; v < n; v++ {
				edges = append(edges, [2]int{0, v})
			}
			g = graph.FromEdges(n, edges).Symmetrize()
		}
		v := GCNConv
		if sage {
			v = SAGEConv
		}
		layers := 1 + int(depth%3)
		rng := rand.New(rand.NewSource(seed))
		a, x := g.NormalizedAdjacency(), dense.NewRandom(rng, n, 5, 1.0)
		model := NewModelVariant(seed, LayerDims(x.Cols, 6, 3, layers), v)
		s := NewSerial(a, x, make([]int, n), nil, model, 0)
		s.Variant = v
		full := serialProbabilities(s)

		targets := randomSubset(rng, n, 1+int(size)%n)
		e := NewSubsetEval(a, x, model, v)
		dst := dense.New(len(targets), e.Classes())
		e.ProbabilitiesInto(dst, targets)
		for k, vtx := range targets {
			if got, want := dst.Row(k), full.Row(vtx); !equalExact(got, want) {
				t.Fatalf("variant %v L=%d vertex %d: subset %v != full %v", v, layers, vtx, got, want)
			}
		}
		if got, want := e.GatheredRows(), withinHops(a, targets, layers-1); got != want {
			t.Fatalf("variant %v L=%d: gathered %d rows, the %d-hop neighbourhood has %d", v, layers, got, layers-1, want)
		}
	})
}

// withinHops counts the vertices at most h hops from targets over Â's
// pattern, by breadth-first search.
func withinHops(a *sparse.CSR, targets []int, h int) int {
	dist := make([]int, a.NumRows)
	for i := range dist {
		dist[i] = -1
	}
	queue := append([]int(nil), targets...)
	for _, v := range targets {
		dist[v] = 0
	}
	for q := 0; q < len(queue); q++ {
		v := queue[q]
		if dist[v] == h {
			continue
		}
		for _, u := range a.ColIdx[a.RowPtr[v]:a.RowPtr[v+1]] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return len(queue)
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
