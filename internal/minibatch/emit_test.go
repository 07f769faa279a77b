package minibatch

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/graph"
	"sagnn/internal/machine"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// oracleBlock is what the emitter must reproduce: one layer built the long
// way, as a coordinate list handed to sparse.NewCSR.
type oracleBlock struct {
	adj  *sparse.CSR
	srcs []int
}

// oracleBlocks is the coordinate-list sampler the emitter replaced, kept as
// its oracle: per layer a fresh interning map, every draw appended as a
// coordinate, and sparse.NewCSR sorting the list and summing duplicates.
func oracleBlocks(rng *rand.Rand, neighbors func(int) []int, batch []int, layers, fanout int) []oracleBlock {
	blocks := make([]oracleBlock, layers)
	outputs := batch
	for l := layers - 1; l >= 0; l-- {
		srcIndex := make(map[int]int)
		var srcs []int
		intern := func(v int) int {
			if i, ok := srcIndex[v]; ok {
				return i
			}
			srcIndex[v] = len(srcs)
			srcs = append(srcs, v)
			return len(srcs) - 1
		}
		var coords []sparse.Coord
		for row, v := range outputs {
			nbrs := neighbors(v)
			sampled := []int{v} // self loop
			if len(nbrs) <= fanout {
				sampled = append(sampled, nbrs...)
			} else {
				for k := 0; k < fanout; k++ {
					sampled = append(sampled, nbrs[rng.Intn(len(nbrs))])
				}
			}
			w := 1.0 / float64(len(sampled))
			for _, u := range sampled {
				coords = append(coords, sparse.Coord{Row: row, Col: intern(u), Val: w})
			}
		}
		blocks[l] = oracleBlock{adj: sparse.NewCSR(len(outputs), len(srcs), coords), srcs: srcs}
		outputs = srcs
	}
	return blocks
}

// oracleGlobalBottom widens a bottom block to the global vertex space the
// way the distributed trainer used to: every entry re-listed under its
// global column id and sorted again.
func oracleGlobalBottom(b oracleBlock, n int) *sparse.CSR {
	var coords []sparse.Coord
	for r := 0; r < b.adj.NumRows; r++ {
		for p := b.adj.RowPtr[r]; p < b.adj.RowPtr[r+1]; p++ {
			coords = append(coords, sparse.Coord{Row: r, Col: b.srcs[b.adj.ColIdx[p]], Val: b.adj.Val[p]})
		}
	}
	return sparse.NewCSR(b.adj.NumRows, n, coords)
}

// sameBlock compares an emitted block with its oracle field for field,
// values by their bits.
func sameBlock(t *testing.T, what string, got *sparse.CSR, gotSrcs []int, want *sparse.CSR, wantSrcs []int) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		t.Fatalf("%s: emitted %dx%d, oracle %dx%d", what, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		t.Fatalf("%s: RowPtr %v, oracle %v", what, got.RowPtr, want.RowPtr)
	}
	if !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: ColIdx %v, oracle %v", what, got.ColIdx, want.ColIdx)
	}
	if !slices.EqualFunc(got.Val, want.Val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: Val %v, oracle %v", what, got.Val, want.Val)
	}
	if !slices.Equal(gotSrcs, wantSrcs) {
		t.Fatalf("%s: srcs %v, oracle %v", what, gotSrcs, wantSrcs)
	}
}

// checkSampledBlocks draws the same batches through the emitter and the
// oracle from identically seeded streams, over Â's rows around the self
// loop: the bottom layer is emitted under global column ids, the layers
// above it interned. Two batches go through the emitter so reuse of its
// storage and interning array is covered.
func checkSampledBlocks(t *testing.T, g *graph.Graph, batches [][]int, layers, fanout int, seed int64) {
	t.Helper()
	n := g.NumVertices()
	aHat := g.NormalizedAdjacency()
	nbrs := make([][]int, n) // Â's rows minus the self loop
	for v := range nbrs {
		for _, u := range aHat.ColIdx[aHat.RowPtr[v]:aHat.RowPtr[v+1]] {
			if u != v {
				nbrs[v] = append(nbrs[v], u)
			}
		}
	}
	em := newEmitter(aHat, selfPositions(aHat), fanout)
	em.rng.Seed(seed)
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]block, layers)
	for _, batch := range batches {
		em.sample(blocks, batch)
		want := oracleBlocks(rng, func(v int) []int { return nbrs[v] }, batch, layers, fanout)
		sameBlock(t, "global bottom", &blocks[0].adj, blocks[0].srcs, oracleGlobalBottom(want[0], n), nil)
		for l := 1; l < layers; l++ {
			sameBlock(t, "interned layer", &blocks[l].adj, blocks[l].srcs, want[l].adj, want[l].srcs)
		}
	}
}

// sampledBlockCase is one graph and sampling shape of the emitter's property
// test; the fuzz target is seeded from the same list.
type sampledBlockCase struct {
	name           string
	n              int
	edges          [][2]int
	fanout, layers int
}

func sampledBlockCases() []sampledBlockCase {
	edgesOf := func(g *graph.Graph) (edges [][2]int) {
		for _, c := range g.Adj.ToCoords() {
			edges = append(edges, [2]int{c.Row, c.Col})
		}
		return edges
	}
	// Every graph is padded with isolated vertices (ids past the generated
	// ones), which sample to a lone self loop.
	er := gen.ErdosRenyi(40, 4, 3)
	sbm, _ := gen.SBM(48, 4, 5, 1, 5)
	var star, path [][2]int
	for v := 1; v < 30; v++ {
		star = append(star, [2]int{0, v})
		path = append(path, [2]int{v - 1, v})
	}
	var cases []sampledBlockCase
	for _, g := range []sampledBlockCase{
		{name: "er", n: 44, edges: edgesOf(er)},
		{name: "sbm", n: 50, edges: edgesOf(sbm)},
		{name: "star", n: 33, edges: star},
		{name: "path", n: 32, edges: path},
	} {
		for _, fanout := range []int{1, 3, 5, 64} { // 64 ≥ every degree here
			g.fanout, g.layers = fanout, 1+fanout%3
			cases = append(cases, g)
		}
	}
	// Hubs of 32 neighbors (a power of two, which rand.Intn draws by
	// masking) and of 40 (by rejection), each above its fanout; fanout 20
	// draws more neighbors per row than any case above, so the draw buffer
	// grows again.
	hub := func(deg int) (edges [][2]int) {
		for v := 1; v <= deg; v++ {
			edges = append(edges, [2]int{0, v}, [2]int{v, 1 + v%deg})
		}
		return edges
	}
	return append(cases,
		sampledBlockCase{name: "hub32", n: 36, edges: hub(32), fanout: 3, layers: 2},
		sampledBlockCase{name: "hub40-fanout20", n: 44, edges: hub(40), fanout: 20, layers: 2})
}

// TestSampledBlocksMatchCoordinateOracle is the emitter's property test:
// over random, clustered, star and path graphs with isolated vertices, every
// fanout regime (below, at and above the degrees) and batches that are
// empty, single, repeated and whole-graph, the emitted blocks equal
// sparse.NewCSR over the same coordinate list field for field — the directly
// emitted global bottom as the re-sorted widening of the interned one.
func TestSampledBlocksMatchCoordinateOracle(t *testing.T) {
	for _, c := range sampledBlockCases() {
		g := graph.FromEdges(c.n, c.edges).Symmetrize()
		rng := rand.New(rand.NewSource(int64(c.n + c.fanout)))
		all := rng.Perm(c.n)
		batches := [][]int{all[:7], nil, {c.n - 1}, all, all[3:11]}
		t.Run(c.name, func(t *testing.T) {
			checkSampledBlocks(t, g, batches, c.layers, c.fanout, int64(c.fanout))
		})
	}
}

// FuzzSampledBlocks drives the same comparison from arbitrary edge lists and
// batches (repeated batch vertices included).
func FuzzSampledBlocks(f *testing.F) {
	for _, c := range sampledBlockCases() {
		var edges []byte
		for _, e := range c.edges {
			edges = append(edges, byte(e[0]), byte(e[1]))
		}
		f.Add(edges, []byte{0, 7, byte(c.n - 1), 7, 3}, uint8(c.n), uint8(c.fanout), uint8(c.layers), int64(c.n))
	}
	f.Fuzz(func(t *testing.T, edgeBytes, batchBytes []byte, nb, fanoutb, layersb uint8, seed int64) {
		n, fanout, layers := 1+int(nb)%64, 1+int(fanoutb)%70, 1+int(layersb)%3
		if len(edgeBytes) > 512 || len(batchBytes) > 64 {
			t.Skip()
		}
		var edges [][2]int
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			edges = append(edges, [2]int{int(edgeBytes[i]) % n, int(edgeBytes[i+1]) % n})
		}
		batch := make([]int, len(batchBytes))
		for i, b := range batchBytes {
			batch[i] = int(b) % n
		}
		g := graph.FromEdges(n, edges).Symmetrize()
		checkSampledBlocks(t, g, [][]int{batch, batch[:len(batch)/2]}, layers, fanout, seed)
	})
}

// BenchmarkSampledDraw derives one step's blocks the way the sampled-sa-sim
// workload does — protein-sim ÷4 in its GVB k = 4 order, four rank
// streams, batch 256, fanout 5, three layers — op after op through the
// epoch's steps.
func BenchmarkSampledDraw(b *testing.B) {
	const p = 4
	ds := gen.MustLoad(gen.ProteinSim, 1, 4)
	part := partition.GVB{Seed: 1}.Partition(ds.G, p)
	perm := part.Perm()
	train := make([]int, len(ds.Train))
	for i, v := range ds.Train {
		train[i] = perm[v]
	}
	n := ds.G.NumVertices()
	d := NewDist(comm.NewWorld(p, machine.Perlmutter()), distmm.LayoutFromOffsets(part.Offsets()),
		ds.G.NormalizedAdjacency().PermuteSymmetric(perm), dense.New(n, 1), make([]int, n), train,
		gcn.LayerDims(1, 16, 2, 3), 1, nil, DistConfig{Fanout: 5, BatchSize: 256, Seed: 1})
	sm, steps := d.newSampler(), d.stepsPerEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.sample(&sm.slots[i%2], i/steps, i%steps)
	}
}
