package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sagnn/internal/gen"
	"sagnn/internal/graph"
)

func ringGraph(n int) *graph.Graph {
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return graph.FromEdges(n, edges).Symmetrize()
}

func TestBlockPartition(t *testing.T) {
	g := ringGraph(10)
	p := Block{}.Partition(g, 3)
	if err := assigned(p, 10); err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	if sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("sizes %v", sizes)
	}
	// ring cut by 3 contiguous blocks: 3 crossings
	if cut := EdgeCut(g, p); cut != 3 {
		t.Fatalf("ring cut = %d want 3", cut)
	}
}

func TestRandomPartitionBalanced(t *testing.T) {
	g := ringGraph(100)
	p := Random{Seed: 5}.Partition(g, 4)
	if err := assigned(p, 100); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Sizes() {
		if s != 25 {
			t.Fatalf("random sizes %v", p.Sizes())
		}
	}
	// random partition of a ring should cut most edges
	if cut := EdgeCut(g, p); cut < 50 {
		t.Fatalf("random cut suspiciously low: %d", cut)
	}
}

func TestPermContiguousByPart(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 40, 5
		parts := make([]int, n)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		p := &Partition{K: k, Parts: parts}
		perm := p.Perm()
		// perm must be a bijection
		seen := make([]bool, n)
		for _, x := range perm {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		// after relabeling, parts sorted by new id must be nondecreasing
		newParts := make([]int, n)
		for v, nv := range perm {
			newParts[nv] = parts[v]
		}
		offsets := p.Offsets()
		for pt := 0; pt < k; pt++ {
			for i := offsets[pt]; i < offsets[pt+1]; i++ {
				if newParts[i] != pt {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetsMatchSizes(t *testing.T) {
	p := &Partition{K: 3, Parts: []int{2, 0, 0, 1, 2, 2}}
	off := p.Offsets()
	want := []int{0, 2, 3, 6}
	for i, w := range want {
		if off[i] != w {
			t.Fatalf("offsets %v want %v", off, want)
		}
	}
}

func TestValidateCatchesBadPart(t *testing.T) {
	p := &Partition{K: 2, Parts: []int{0, 5}}
	if assigned(p, 2) == nil {
		t.Fatal("expected validation error")
	}
	if assigned(p, 3) == nil {
		t.Fatal("expected length error")
	}
}

func TestMetisLikeOnBandedGraphFindsSmallCut(t *testing.T) {
	g := gen.Banded(2048, 8, 16, 1)
	k := 8
	p := MetisLike{Seed: 1}.Partition(g, k)
	if err := assigned(p, g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	metisCut := EdgeCut(g, p)
	randCut := EdgeCut(g, Random{Seed: 1}.Partition(g, k))
	if metisCut*10 > randCut {
		t.Fatalf("multilevel cut %d should be ≪ random cut %d", metisCut, randCut)
	}
	// balance: no part more than ~2x average nnz
	if b := NNZBalance(g, p); b > 1.0 {
		t.Fatalf("nnz balance too loose: %v", b)
	}
}

func TestMetisLikeBeatsBlockOnShuffledGraph(t *testing.T) {
	// A banded graph destroyed by a random permutation: block partitioning
	// is blind to it, multilevel should recover most of the locality.
	g := gen.Banded(1024, 8, 16, 2)
	rng := rand.New(rand.NewSource(3))
	g = g.Permute(rng.Perm(1024))
	k := 4
	blockCut := EdgeCut(g, Block{}.Partition(g, k))
	metisCut := EdgeCut(g, MetisLike{Seed: 2}.Partition(g, k))
	if metisCut*2 > blockCut {
		t.Fatalf("multilevel cut %d should be well below block cut %d", metisCut, blockCut)
	}
}

func TestMetisLikeK1(t *testing.T) {
	g := ringGraph(16)
	p := MetisLike{Seed: 1}.Partition(g, 1)
	if EdgeCut(g, p) != 0 {
		t.Fatal("k=1 must have no cut")
	}
}

func TestGVBReducesMaxSendVolume(t *testing.T) {
	// Irregular RMAT graph: METIS-like leaves send volume imbalanced; GVB
	// must reduce the bottleneck.
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 4))
	k := 8
	metis := MetisLike{Seed: 9}.Partition(g, k)
	gvb := GVB{Seed: 9}.Partition(g, k)
	if err := assigned(gvb, g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	mv := Volumes(g, metis)
	gv := Volumes(g, gvb)
	if gv.MaxSendRows > mv.MaxSendRows {
		t.Fatalf("GVB max send %d should be ≤ METIS %d", gv.MaxSendRows, mv.MaxSendRows)
	}
}

func TestGVBAblationVolumePhaseMatters(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	k := 8
	off := GVB{Seed: 3, DisableVolumePhase: true}.Partition(g, k)
	on := GVB{Seed: 3}.Partition(g, k)
	vOff := Volumes(g, off)
	vOn := Volumes(g, on)
	if vOn.MaxSendRows > vOff.MaxSendRows {
		t.Fatalf("volume phase should not worsen max send: %d vs %d",
			vOn.MaxSendRows, vOff.MaxSendRows)
	}
}

func TestVolumesConsistency(t *testing.T) {
	// total send rows == total recv rows, and equals the brute-force count
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 6))
	p := Random{Seed: 7}.Partition(g, 4)
	vs := Volumes(g, p)
	var sendSum, recvSum int64
	for i := 0; i < 4; i++ {
		sendSum += vs.SendRows[i]
		recvSum += vs.RecvRows[i]
	}
	if sendSum != recvSum || sendSum != vs.TotalRows {
		t.Fatalf("volume conservation: send %d recv %d total %d", sendSum, recvSum, vs.TotalRows)
	}
	// brute force: for each vertex count distinct remote neighbor parts
	var brute int64
	for v := 0; v < g.NumVertices(); v++ {
		remote := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			if p.Parts[u] != p.Parts[v] {
				remote[p.Parts[u]] = true
			}
		}
		brute += int64(len(remote))
	}
	if brute != vs.TotalRows {
		t.Fatalf("brute force %d != TotalRows %d", brute, vs.TotalRows)
	}
}

func TestEdgeCutBruteForce(t *testing.T) {
	g := gen.ErdosRenyi(200, 6, 8)
	p := Random{Seed: 11}.Partition(g, 3)
	var brute int64
	for _, c := range g.Adj.ToCoords() {
		if p.Parts[c.Row] != p.Parts[c.Col] {
			brute++
		}
	}
	if EdgeCut(g, p) != brute/2 {
		t.Fatalf("EdgeCut %d != brute %d", EdgeCut(g, p), brute/2)
	}
}

func TestEvaluateQualityString(t *testing.T) {
	g := ringGraph(32)
	p := Block{}.Partition(g, 4)
	q := Evaluate("block", g, p)
	if q.EdgeCut != 4 || q.K != 4 {
		t.Fatalf("quality %+v", q)
	}
	if q.String() == "" {
		t.Fatal("empty string")
	}
}

func TestPartitionersDeterministic(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 12))
	for _, pt := range []Partitioner{MetisLike{Seed: 5}, GVB{Seed: 5}, Random{Seed: 5}} {
		a := pt.Partition(g, 4)
		b := pt.Partition(g, 4)
		for i := range a.Parts {
			if a.Parts[i] != b.Parts[i] {
				t.Fatalf("%s not deterministic", pt.Name())
			}
		}
	}
}

func TestGVBBalanceRespected(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 13))
	p := GVB{Seed: 1}.Partition(g, 8)
	if b := NNZBalance(g, p); b > 0.6 {
		t.Fatalf("GVB nnz balance %v exceeds its slack", b)
	}
}

var setupSink *Partition

// BenchmarkGVBSetup partitions reddit-sim at full size four ways, the
// fullbatch-sa-sim shape.
func BenchmarkGVBSetup(b *testing.B) {
	g := gen.MustLoad(gen.RedditSim, 1, 1).G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setupSink = GVB{Seed: 1}.Partition(g, 4)
	}
}
