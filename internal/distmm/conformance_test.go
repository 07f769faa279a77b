package distmm

import (
	"fmt"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/graph"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// This file is the engine conformance harness: one table-driven suite that
// runs every algorithm candidate EnumerateCandidates lists — 1D and 1.5D
// over every feasible replication factor — at P ∈ {4, 8, 16}, on four
// structurally distinct graphs (Erdős–Rényi, stochastic block model, star,
// path). For each cell it asserts:
//
//   - the distributed output matches the serial SpMM reference — exactly for
//     the engines whose accumulation order provably equals the serial
//     column-order sum (oblivious 1D), within 1e-10 for the engines
//     that reorder additions (the sparsity-aware diagonal-first schedules
//     and the 1.5D partial-sum reduction);
//   - measured per-rank volumes equal Plan.Volumes to the byte and message.
//
// The star and path graphs exercise the extremes the random graphs miss: a
// rank owning a hub every other rank needs (dense NnzCols columns into one
// block) and a banded matrix where most off-diagonal blocks are empty
// (zero-length sends, empty all-to-allv buckets).

// starGraph returns a hub-and-spokes graph: vertex 0 adjacent to all others.
func starGraph(n int) *graph.Graph {
	edges := make([][2]int, 0, 2*(n-1))
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i}, [2]int{i, 0})
	}
	return graph.FromEdges(n, edges)
}

// pathGraph returns a simple chain 0–1–…–(n−1).
func pathGraph(n int) *graph.Graph {
	edges := make([][2]int, 0, 2*(n-1))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1}, [2]int{i + 1, i})
	}
	return graph.FromEdges(n, edges)
}

// conformanceGraphs is the structural test matrix.
func conformanceGraphs(n int) []struct {
	name string
	a    *sparse.CSR
} {
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"er", gen.ErdosRenyi(n, 5, 31).NormalizedAdjacency()},
		{"sbm", sbmAdj(n, 4, 8, 2, 32)},
		{"star", starGraph(n).NormalizedAdjacency()},
		{"path", pathGraph(n).NormalizedAdjacency()},
	}
}

// exactSerialOrder names the engine whose accumulation order equals the
// serial SpMM's (blocks multiply in ascending column order straight into the
// output), making bit-identity to the reference a structural guarantee.
func exactSerialOrder(name string) bool {
	return name == "oblivious-1d"
}

// checkVolumes asserts measured per-rank traffic equals the plan prediction.
func checkVolumes(t *testing.T, label string, w *comm.World, pl *Plan, f int) {
	t.Helper()
	pred := pl.Volumes(f)
	for rank := 0; rank < w.P; rank++ {
		if got, want := w.Stats().BytesSent(rank), pred[rank].SentBytes; got != want {
			t.Errorf("%s rank %d: sent %d, plan predicts %d", label, rank, got, want)
		}
		if got, want := w.Stats().BytesRecv(rank), pred[rank].RecvBytes; got != want {
			t.Errorf("%s rank %d: recv %d, plan predicts %d", label, rank, got, want)
		}
		if got, want := w.Stats().MsgsSent(rank), pred[rank].MsgsSent; got != want {
			t.Errorf("%s rank %d: %d msgs, plan predicts %d", label, rank, got, want)
		}
	}
}

// checkAgainstSerial asserts the assembled distributed output matches the
// serial reference under the engine's guarantee tier.
func checkAgainstSerial(t *testing.T, label, engine string, got, want *dense.Matrix) {
	t.Helper()
	if exactSerialOrder(engine) {
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Errorf("%s: element %d differs from serial reference: %v vs %v", label, i, got.Data[i], v)
				return
			}
		}
		return
	}
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("%s: diff vs serial reference %g", label, d)
	}
}

func TestEngineConformance(t *testing.T) {
	const n, f = 96, 7
	for _, g := range conformanceGraphs(n) {
		h := dense.NewRandom(rand.New(rand.NewSource(33)), n, f, 1.0)
		want := g.a.SpMM(h)
		for _, p := range []int{4, 8, 16} {
			for _, spec := range EnumerateCandidates(p) {
				if spec.Skip != "" {
					continue // infeasibility itself is pinned by TestEnumerateCandidatesSkips
				}
				label := fmt.Sprintf("%s/%s/p=%d", g.name, spec.Name, p)
				w := comm.NewWorld(p, machine.Perlmutter())
				e, err := NewEngine(w, spec.Name, spec.C, g.a, UniformLayout(n, p/spec.C))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Verify-at-compile smoke: every candidate plan must pass the
				// static checker before it is allowed to run.
				if err := Verify(e.Plan()); err != nil {
					t.Fatalf("%s: compiled plan fails Verify: %v", label, err)
				}
				got := runMultiply(t, w, e, h)
				checkVolumes(t, label, w, e.Plan(), f)
				checkAgainstSerial(t, label, spec.Name, got, want)
			}
		}
	}
}

// TestEnumerateCandidatesSkips pins the feasibility rules the conformance
// matrix relies on: replication factors that do not divide P, or whose
// square does not, skip 1.5D.
func TestEnumerateCandidatesSkips(t *testing.T) {
	skips := make(map[string]string)
	for _, spec := range EnumerateCandidates(8) {
		skips[fmt.Sprintf("%s/c=%d", spec.Name, spec.C)] = spec.Skip
	}
	if len(skips) != 6 {
		t.Errorf("P=8 must enumerate the 1D pair and the 1.5D pairs at c ∈ {2, 4}, got %v", skips)
	}
	if skips["oblivious-1.5d/c=4"] == "" {
		t.Errorf("P=8 must skip 1.5D c=4 (c² ∤ P), got %v", skips)
	}
	if skips["sparsity-aware-1.5d/c=2"] != "" {
		t.Errorf("P=8 c=2 is feasible, got skip %q", skips["sparsity-aware-1.5d/c=2"])
	}
}
