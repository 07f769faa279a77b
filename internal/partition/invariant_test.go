package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sagnn/internal/gen"
	"sagnn/internal/graph"
)

// TestMultilevelInvariants runs the full pipeline on assorted graphs and
// checks the structural invariants every partition must satisfy.
func TestMultilevelInvariants(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(300, 6, 1),
		gen.RMAT(gen.DefaultRMAT(9, 4, 2)),
		gen.Banded(400, 8, 10, 3),
		graph.FromEdges(50, nil), // edgeless
	}
	for gi, g := range graphs {
		for _, k := range []int{2, 5, 8} {
			for _, pt := range []Partitioner{MetisLike{Seed: 4}, GVB{Seed: 4}} {
				p := pt.Partition(g, k)
				if err := p.Validate(g.NumVertices()); err != nil {
					t.Fatalf("graph %d %s k=%d: %v", gi, pt.Name(), k, err)
				}
				// every part non-empty for graphs with ≥ k vertices
				if g.NumVertices() >= k {
					for part, sz := range p.Sizes() {
						if sz == 0 {
							t.Fatalf("graph %d %s k=%d: part %d empty", gi, pt.Name(), k, part)
						}
					}
				}
			}
		}
	}
}

// TestGVBObjectiveNeverWorseThanStart: the volume refinement is greedy
// accept-only-improving, so GVB's (maxSend, total) must be ≤ its own
// starting point (the edgecut phase output).
func TestGVBObjectiveNeverWorseThanStart(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.RMAT(gen.DefaultRMAT(8, 6, seed))
		k := 6
		start := GVB{Seed: seed, DisableVolumePhase: true}.Partition(g, k)
		refined := GVB{Seed: seed}.Partition(g, k)
		vs, vr := Volumes(g, start), Volumes(g, refined)
		if vr.MaxSendRows > vs.MaxSendRows {
			return false
		}
		if vr.MaxSendRows == vs.MaxSendRows && vr.TotalRows > vs.TotalRows {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestVolStateIncrementalMatchesRecompute verifies the incremental send
// volume bookkeeping the GVB refinement relies on: after a sequence of
// random legal moves, the tracked volumes equal a from-scratch recount.
func TestVolStateIncrementalMatchesRecompute(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 5, 17))
	k := 5
	parts := Random{Seed: 17}.Partition(g, k).Parts
	w := fromGraph(g)
	s := newVolState(w, parts, k)
	rng := rand.New(rand.NewSource(18))
	delta := make([]int64, k)
	for move := 0; move < 200; move++ {
		v := rng.Intn(w.n)
		p := parts[v]
		q := rng.Intn(k)
		if q == p || s.partW[p]-w.vwgt[v] <= 0 {
			continue
		}
		s.evalMove(v, p, q, delta)
		s.apply(v, p, q, delta)
	}
	// recount from scratch
	fresh := newVolState(w, parts, k)
	for part := 0; part < k; part++ {
		if s.send[part] != fresh.send[part] {
			t.Fatalf("part %d: incremental %d != recount %d", part, s.send[part], fresh.send[part])
		}
	}
	for v := 0; v < w.n; v++ {
		if s.cnt.nz[v] != fresh.cnt.nz[v] {
			t.Fatalf("vertex %d: incremental %d nonzero parts != recount %d", v, s.cnt.nz[v], fresh.cnt.nz[v])
		}
	}
	vs := Volumes(g, &Partition{K: k, Parts: parts})
	for part := 0; part < k; part++ {
		if vs.SendRows[part] != fresh.send[part] {
			t.Fatalf("part %d: metrics %d != volstate %d", part, vs.SendRows[part], fresh.send[part])
		}
	}
}

// TestCoarseningPreservesTotals: vertex weight and edge weight must be
// conserved through contraction (intra-match edges fold into vertices).
func TestCoarseningPreservesTotals(t *testing.T) {
	g := gen.ErdosRenyi(200, 8, 21)
	w := fromGraph(g)
	rng := rand.New(rand.NewSource(22))
	cw, cmap := coarsen(w, rng)
	if cw.n >= w.n {
		t.Fatalf("coarsening did not shrink: %d -> %d", w.n, cw.n)
	}
	var fineW, coarseW int64
	for _, x := range w.vwgt {
		fineW += x
	}
	for _, x := range cw.vwgt {
		coarseW += x
	}
	if fineW != coarseW {
		t.Fatalf("vertex weight lost: %d -> %d", fineW, coarseW)
	}
	// cross-coarse-vertex edge weight is preserved
	var fineCross int64
	for v := 0; v < w.n; v++ {
		for p := w.xadj[v]; p < w.xadj[v+1]; p++ {
			if cmap[v] != cmap[w.adj[p]] {
				fineCross += w.ewgt[p]
			}
		}
	}
	var coarseTotal int64
	for _, x := range cw.ewgt {
		coarseTotal += x
	}
	if fineCross != coarseTotal {
		t.Fatalf("edge weight mismatch: fine cross %d, coarse %d", fineCross, coarseTotal)
	}
	// cmap is a valid surjection onto [0, cw.n)
	seen := make([]bool, cw.n)
	for _, c := range cmap {
		if c < 0 || c >= cw.n {
			t.Fatal("cmap out of range")
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("coarse vertex %d has no fine members", c)
		}
	}
}

// TestRefineEdgeCutNeverIncreasesCut: greedy positive-gain moves cannot
// worsen the objective.
func TestRefineEdgeCutNeverIncreasesCut(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(150, 6, seed)
		k := 4
		p := Random{Seed: seed}.Partition(g, k)
		before := EdgeCut(g, p)
		w := fromGraph(g)
		maxW := int64(float64(w.totalVWgt()) / float64(k) * 1.3)
		rng := rand.New(rand.NewSource(seed + 1))
		refineEdgeCut(w, p.Parts, k, maxW, 3, rng)
		after := EdgeCut(g, p)
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
