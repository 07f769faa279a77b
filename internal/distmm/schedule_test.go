package distmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// oracleSched is the NnzCols schedule built block by block, the way the
// engines built it before the two-pass builder: every (i, j) block cut out
// of its block row, its nonzero columns listed, the block copied with its
// columns relabeled to them (compact), and each block row's relabeled peer
// blocks copied side by side into one operand (halo).
type oracleSched struct {
	recvIdx [][][]int
	compact [][]*sparse.CSR
	diag    []*sparse.CSR
	haloAt  [][]int
	halo    []*sparse.CSR
}

func oracleSchedule(rows rowSource, layout Layout) oracleSched {
	k := layout.Blocks()
	s := oracleSched{
		recvIdx: make([][][]int, k), compact: make([][]*sparse.CSR, k),
		diag: make([]*sparse.CSR, k), haloAt: make([][]int, k), halo: make([]*sparse.CSR, k),
	}
	for i := 0; i < k; i++ {
		src, lo, hi := rows(i)
		all := make([]int, hi-lo)
		for r := range all {
			all[r] = r
		}
		s.recvIdx[i], s.compact[i] = make([][]int, k), make([]*sparse.CSR, k)
		at := make([]int, k+1)
		var peers []*sparse.CSR
		for j := 0; j < k; j++ {
			clo, chi := layout.Range(j)
			blk := src.ExtractBlock(sparse.ColRange{Lo: lo, Hi: hi}, sparse.ColRange{Lo: clo, Hi: chi})
			at[j+1] = at[j]
			if j == i {
				s.diag[i] = blk
				continue
			}
			cols := blk.NnzColsInRange(sparse.ColRange{Lo: 0, Hi: blk.NumCols})
			s.recvIdx[i][j] = cols
			s.compact[i][j] = &sparse.CSR{}
			blk.SubmatrixInto(s.compact[i][j], all, cols, nil)
			at[j+1] += len(cols)
			peers = append(peers, s.compact[i][j])
		}
		s.haloAt[i] = at
		s.halo[i] = hconcat(hi-lo, peers)
	}
	return s
}

// hconcat copies blocks side by side: row r is every block's row r in
// block order, each block's columns shifted past the blocks before it.
func hconcat(rows int, blocks []*sparse.CSR) *sparse.CSR {
	out := &sparse.CSR{NumRows: rows, RowPtr: make([]int, rows+1)}
	for _, b := range blocks {
		out.NumCols += b.NumCols
	}
	for r := 0; r < rows; r++ {
		off := 0
		for _, b := range blocks {
			for p := b.RowPtr[r]; p < b.RowPtr[r+1]; p++ {
				out.ColIdx = append(out.ColIdx, off+b.ColIdx[p])
				out.Val = append(out.Val, b.Val[p])
			}
			off += b.NumCols
		}
		out.RowPtr[r+1] = len(out.ColIdx)
	}
	return out
}

// requireSameCSR fails unless got equals want field for field, values by
// their bits.
func requireSameCSR(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		t.Fatalf("%s: %dx%d, oracle %dx%d", what, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: RowPtr %v ColIdx %v, oracle %v %v", what, got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
	}
	if !slices.EqualFunc(got.Val, want.Val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: Val %v, oracle %v", what, got.Val, want.Val)
	}
}

// requireOracleSchedule compares the builder's schedule of rows with the
// oracle's field for field, and each peer slot with the oracle's compact
// block. It builds into a fresh schedule, as the full-batch engines do,
// and into one that first held a larger operand and then a smaller one, as
// a sampled gather's arena does, so a stale row-pointer head or an entry
// left over from an earlier build shows; and every build shares one
// marking scratch, so a scratch a build leaves dirty shows in the next.
func requireOracleSchedule(t *testing.T, rows rowSource, layout Layout) {
	t.Helper()
	want := oracleSchedule(rows, layout)
	marks := newScheduleMarks()
	larger, smaller := dirtyOperands(rows, layout)
	for build, before := range [][]rowSource{nil, {larger, smaller}} {
		s := new(nnzSchedule)
		for _, src := range before {
			buildNnzSchedule(src, layout, marks, s)
		}
		got := buildNnzSchedule(rows, layout, marks, s)
		for i := range want.diag {
			what := fmt.Sprintf("build %d block row %d", build, i)
			requireSameCSR(t, what+" diag", got.diag[i], want.diag[i])
			requireSameCSR(t, what+" halo", got.halo[i], want.halo[i])
			if !slices.Equal(got.haloAt[i], want.haloAt[i]) {
				t.Fatalf("%s: haloAt %v, oracle %v", what, got.haloAt[i], want.haloAt[i])
			}
			for j := range want.recvIdx[i] {
				if !slices.Equal(got.recvIdx[i][j], want.recvIdx[i][j]) {
					t.Fatalf("%s peer %d: recvIdx %v, oracle %v", what, j, got.recvIdx[i][j], want.recvIdx[i][j])
				}
				nnz := 0
				if j != i {
					requireSameCSR(t, fmt.Sprintf("%s slot %d", what, j), got.slots(i, j, j+1), want.compact[i][j])
					nnz = want.compact[i][j].NNZ()
				}
				if got.nnz[i][j] != nnz {
					t.Fatalf("%s peer %d: %d nonzeros, oracle %d", what, j, got.nnz[i][j], nnz)
				}
			}
		}
	}
	for len(marks) > 0 {
		if slices.ContainsFunc(<-marks, func(v int) bool { return v != 0 }) {
			t.Fatal("a marking array is not zeroed after the build")
		}
	}
}

// dirtyOperands returns two frontier-shaped operands over layout that fill
// a schedule with other contents than rows: larger's block row i is three
// rows taller than rows' and has every column in every row, smaller's is
// half as tall with a third of the columns. Their values are negative,
// which no case's are.
func dirtyOperands(rows rowSource, layout Layout) (larger, smaller rowSource) {
	k, n := layout.Blocks(), layout.N()
	big, small := make([]*sparse.CSR, k), make([]*sparse.CSR, k)
	for i := range big {
		_, lo, hi := rows(i)
		var full, third []sparse.Coord
		for r := 0; r < hi-lo+3; r++ {
			for c := 0; c < n; c++ {
				full = append(full, sparse.Coord{Row: r, Col: c, Val: -float64(1 + r*n + c)})
				if r < (hi-lo+1)/2 && (r+c)%3 == 0 {
					third = append(third, sparse.Coord{Row: r, Col: c, Val: -float64(1 + c)})
				}
			}
		}
		big[i] = sparse.NewCSR(hi-lo+3, n, full)
		small[i] = sparse.NewCSR((hi-lo+1)/2, n, third)
	}
	return frontierRows(big), frontierRows(small)
}

// require15DSlots compiles the sparsity-aware 1.5D engine at c = 2 over a
// square operand and checks every rank's exchange operand is the oracle's
// compact blocks of its column's range of block columns merged side by side
// in slot order, its own block (when in range) contributing none.
func require15DSlots(t *testing.T, a *sparse.CSR, layout Layout) {
	t.Helper()
	const c = 2
	want := oracleSchedule(layoutRows(a, layout), layout)
	e := NewSparsityAware15D(comm.NewWorld(c*layout.Blocks(), machine.Perlmutter()), a, c, layout)
	s := layout.Blocks() / c
	for rank, prog := range e.Plan().progs {
		i, j := rank/c, rank%c
		lo, hi := layout.Range(i)
		var blocks []*sparse.CSR
		for q := j * s; q < (j+1)*s; q++ {
			if q != i {
				blocks = append(blocks, want.compact[i][q])
			}
		}
		requireSameCSR(t, fmt.Sprintf("1.5D rank %d exchange operand", rank), prog[0].halo, hconcat(hi-lo, blocks))
	}
}

// haloCase is one operand of the schedule's oracle test; the fuzz target is
// seeded from the same list. cuts are the layout's inner offsets (sorted
// when the layout is made), entries (row, column, tag) triples: the tag
// sets the value and, for a rectangular case, the frontier block the entry
// lands in.
type haloCase struct {
	name    string
	n       int
	cuts    []byte
	entries []byte
	rect    bool
}

// operand builds the case's layout and row source; square is the n×n
// operand of a square case (nil for a rectangular one).
func (c haloCase) operand() (rows rowSource, layout Layout, square *sparse.CSR) {
	offsets := []int{0}
	for _, b := range c.cuts {
		offsets = append(offsets, int(b)%(c.n+1))
	}
	slices.Sort(offsets)
	layout = LayoutFromOffsets(append(offsets, c.n))
	k := layout.Blocks()
	coords := make([][]sparse.Coord, k)
	heights := make([]int, k)
	for e := 0; e+2 < len(c.entries); e += 3 {
		r, col, tag := int(c.entries[e]), int(c.entries[e+1])%c.n, c.entries[e+2]
		i := 0
		if c.rect {
			i = int(tag) % k
			r %= 16
		} else {
			r %= c.n
		}
		coords[i] = append(coords[i], sparse.Coord{Row: r, Col: col, Val: 1 + float64(tag)/7})
		heights[i] = max(heights[i], r+1)
	}
	if !c.rect {
		square = sparse.NewCSR(c.n, c.n, coords[0])
		return layoutRows(square, layout), layout, square
	}
	blocks := make([]*sparse.CSR, k)
	for i := range blocks {
		blocks[i] = sparse.NewCSR(heights[i], c.n, coords[i])
	}
	return frontierRows(blocks), layout, nil
}

func haloCases() []haloCase {
	rng := rand.New(rand.NewSource(11))
	random := func(count, rows, n int) []byte {
		var b []byte
		for e := 0; e < count; e++ {
			b = append(b, byte(rng.Intn(rows)), byte(rng.Intn(n)), byte(rng.Intn(256)))
		}
		return b
	}
	// sweepMatrix's shapes: empty rows, rows without diagonal-block
	// entries, a block row with no remote column, a silent partner.
	var sweep []byte
	for _, c := range sweepMatrix(1).ToCoords() {
		sweep = append(sweep, byte(c.Row), byte(c.Col), byte(c.Row+c.Col))
	}
	// Rows 0–2 of block 0 need every column of block 1 ([8, 16)); a
	// rectangular case's tag 4 lands them in frontier block 0 as well.
	fullPeer := random(40, 32, 32)
	for r := 0; r < 3; r++ {
		for col := 8; col < 16; col++ {
			fullPeer = append(fullPeer, byte(r), byte(col), 4)
		}
	}
	return []haloCase{
		{name: "random", n: 48, cuts: []byte{12, 24, 36}, entries: random(150, 48, 48)},
		{name: "sweep-shapes", n: 64, cuts: []byte{16, 32, 48}, entries: sweep},
		{name: "empty-block", n: 40, cuts: []byte{0, 10, 25}, entries: random(90, 40, 40)},
		{name: "full-peer", n: 32, cuts: []byte{8, 16, 24}, entries: fullPeer},
		{name: "no-entries", n: 20, cuts: []byte{5, 10, 15}},
		{name: "frontiers", n: 48, cuts: []byte{12, 24, 36}, entries: random(120, 16, 48), rect: true},
		{name: "frontiers-empty-block", n: 40, cuts: []byte{0, 10, 25}, entries: random(90, 16, 40), rect: true},
		{name: "frontiers-full-peer", n: 32, cuts: []byte{8, 16, 24}, entries: fullPeer, rect: true},
	}
}

// TestHaloScheduleMatchesOracle: over square and rectangular operands —
// empty rows, a zero-count layout block, a block row without remote
// columns, one needing every column of a peer, an empty frontier — the
// two-pass schedule equals the block-by-block one field for field, values
// by their bits, as do the 1.5D engine's exchange operands cut from it.
func TestHaloScheduleMatchesOracle(t *testing.T) {
	for _, c := range haloCases() {
		t.Run(c.name, func(t *testing.T) {
			rows, layout, square := c.operand()
			requireOracleSchedule(t, rows, layout)
			if square != nil && layout.Blocks()%2 == 0 {
				require15DSlots(t, square, layout)
			}
		})
	}
}

// FuzzHaloSchedule drives the same comparison from arbitrary operands and
// layouts of up to 9 blocks.
func FuzzHaloSchedule(f *testing.F) {
	for _, c := range haloCases() {
		f.Add(uint8(c.n), c.cuts, c.entries, c.rect)
	}
	f.Fuzz(func(t *testing.T, nb uint8, cuts, entries []byte, rect bool) {
		if len(cuts) > 8 || len(entries) > 1200 {
			t.Skip()
		}
		c := haloCase{n: 1 + int(nb)%64, cuts: cuts, entries: entries, rect: rect}
		rows, layout, square := c.operand()
		requireOracleSchedule(t, rows, layout)
		if square != nil && layout.Blocks()%2 == 0 {
			require15DSlots(t, square, layout)
		}
	})
}

// recompileFrontiers is a fixed 4-rank sampled step over an n = 512
// layout: 96 frontier rows per rank of 12 random columns each.
func recompileFrontiers(seed int64) (Layout, []*sparse.CSR) {
	const n, p, rows, deg = 512, 4, 96, 12
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]*sparse.CSR, p)
	for i := range blocks {
		var coords []sparse.Coord
		for r := 0; r < rows; r++ {
			for k := 0; k < deg; k++ {
				coords = append(coords, sparse.Coord{Row: r, Col: rng.Intn(n), Val: rng.Float64()})
			}
		}
		blocks[i] = sparse.NewCSR(rows, n, coords)
	}
	return UniformLayout(n, p), blocks
}

// TestSampledRecompileAllocs pins what compiling one warmed sampled step
// allocates: the schedule, slot fills and plan are written into the compile
// arena the step before last used, so what is left is three closures — the
// row source and the two par.For bodies (AllocsPerRun runs at GOMAXPROCS
// 1, where par.For is a plain loop) — whatever the frontier. Built block by
// block, the schedule made the step allocate 511 times here (every (i, j)
// block, its column list and relabeled copy, grown entry by entry); built
// in two passes into fresh arrays, 73.
func TestSampledRecompileAllocs(t *testing.T) {
	const bound = 3
	layout, first := recompileFrontiers(1)
	_, next := recompileFrontiers(2)
	g := NewSampledGather(comm.NewWorld(layout.Blocks(), machine.Perlmutter()), first, layout)
	mark := g.Resident()
	allocs := testing.AllocsPerRun(20, func() {
		g.Rewind(mark)
		g.Recompile(next)
	})
	if allocs > bound {
		t.Errorf("Recompile allocates %v times, bound %d", allocs, bound)
	}
}

// BenchmarkSampledRecompile compiles one sampled step against empty
// resident stores, on the sampled-sa-sim graph and layout (protein-sim ÷4
// in its GVB k = 4 order, P = 4) with a batch of 256 per rank. The bottom
// blocks come from a simpler rule than the trainer's layered sampler: a
// row per batch vertex and per neighbor drawn for one, and each row its
// self loop and ten neighbors drawn with replacement.
func BenchmarkSampledRecompile(b *testing.B) {
	const p, fanout, batch = 4, 10, 256
	ds := gen.MustLoad(gen.ProteinSim, 1, 4)
	part := partition.GVB{Seed: 1}.Partition(ds.G, p)
	a := ds.G.NormalizedAdjacency().PermuteSymmetric(part.Perm())
	layout := LayoutFromOffsets(part.Offsets())
	rng := rand.New(rand.NewSource(1))
	draw := func(v int) []int {
		row := a.ColIdx[a.RowPtr[v]:a.RowPtr[v+1]]
		out := []int{v}
		for k := 0; k < fanout; k++ {
			out = append(out, row[rng.Intn(len(row))])
		}
		return out
	}
	blocks := make([]*sparse.CSR, p)
	for i := range blocks {
		lo, hi := layout.Range(i)
		var frontier []int
		for k := 0; k < batch; k++ {
			frontier = append(frontier, draw(lo+rng.Intn(hi-lo))...)
		}
		var coords []sparse.Coord
		for r, v := range frontier {
			for _, u := range draw(v) {
				coords = append(coords, sparse.Coord{Row: r, Col: u, Val: 1.0 / (fanout + 1)})
			}
		}
		blocks[i] = sparse.NewCSR(len(frontier), a.NumRows, coords)
	}
	g := NewSampledGather(comm.NewWorld(p, machine.Perlmutter()), blocks, layout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Rewind(0)
		g.Recompile(blocks)
	}
}
