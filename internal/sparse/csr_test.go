package sparse

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"sagnn/internal/dense"
)

func TestNewCSRBasic(t *testing.T) {
	m := NewCSR(3, 4, []Coord{
		{2, 1, 5}, {0, 0, 1}, {0, 3, 2}, {2, 1, 3}, // duplicate (2,1) sums
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ=%d want 3", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 3) != 2 || m.At(2, 1) != 8 {
		t.Fatalf("wrong values: %v %v %v", m.At(0, 0), m.At(0, 3), m.At(2, 1))
	}
	if m.At(1, 1) != 0 {
		t.Fatal("missing entry should be 0")
	}
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
}

// TestNewCSRDuplicatesSumInInputOrder pins NewCSR's duplicate contract at a
// fixed case: three entries of one coordinate are summed in input order,
// and (0.1+0.2)+0.3 rounds differently from (0.3+0.2)+0.1.
func TestNewCSRDuplicatesSumInInputOrder(t *testing.T) {
	m := NewCSR(2, 2, []Coord{
		{0, 0, 0.1}, {1, 1, 0.3}, {0, 0, 0.2}, {1, 1, 0.2}, {0, 0, 0.3}, {1, 1, 0.1},
	})
	if m.NNZ() != 2 || m.At(0, 0) != 0.6000000000000001 || m.At(1, 1) != 0.6 {
		t.Fatalf("nnz %d, sums %v and %v; want 2, 0.6000000000000001 and 0.6", m.NNZ(), m.At(0, 0), m.At(1, 1))
	}
}

func TestNewCSREmptyAndPanic(t *testing.T) {
	m := NewCSR(5, 5, nil)
	if m.NNZ() != 0 || len(m.RowPtr) != 6 {
		t.Fatal("empty CSR malformed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range coord")
		}
	}()
	NewCSR(2, 2, []Coord{{2, 0, 1}})
}

func TestCooRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewRandom(rng, 30, 0.1)
	coords := m.ToCoords()
	m2 := NewCSR(30, 30, coords)
	if !reflect.DeepEqual(m.RowPtr, m2.RowPtr) || !reflect.DeepEqual(m.ColIdx, m2.ColIdx) {
		t.Fatal("COO round trip changed structure")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewRandom(rng, 20, 0.15)
		tt := m.Transpose().Transpose()
		return reflect.DeepEqual(m.RowPtr, tt.RowPtr) &&
			reflect.DeepEqual(m.ColIdx, tt.ColIdx) &&
			reflect.DeepEqual(m.Val, tt.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeValues(t *testing.T) {
	m := NewCSR(2, 3, []Coord{{0, 1, 4}, {1, 2, 7}, {0, 0, 1}})
	tr := m.Transpose()
	if tr.NumRows != 3 || tr.NumCols != 2 {
		t.Fatal("transpose shape")
	}
	if tr.At(1, 0) != 4 || tr.At(2, 1) != 7 || tr.At(0, 0) != 1 {
		t.Fatal("transpose values")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := NewCSR(3, 3, []Coord{{0, 1, 2}, {1, 0, 2}, {2, 2, 1}})
	if !sym.IsSymmetric(0) {
		t.Fatal("should be symmetric")
	}
	asym := NewCSR(3, 3, []Coord{{0, 1, 2}})
	if asym.IsSymmetric(0) {
		t.Fatal("should not be symmetric")
	}
	rect := NewCSR(2, 3, nil)
	if rect.IsSymmetric(0) {
		t.Fatal("rectangular cannot be symmetric")
	}
}

func TestPermuteSymmetricPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewRandom(rng, 25, 0.12)
	perm := rng.Perm(25)
	p := m.PermuteSymmetric(perm)
	if p.NNZ() != m.NNZ() {
		t.Fatalf("permutation changed nnz %d -> %d", m.NNZ(), p.NNZ())
	}
	// spot check: every original entry appears at permuted coordinates
	for _, c := range m.ToCoords() {
		if p.At(perm[c.Row], perm[c.Col]) != c.Val {
			t.Fatalf("entry (%d,%d) lost", c.Row, c.Col)
		}
	}
	// degree multiset preserved
	degs := func(x *CSR) []int {
		d := make([]int, x.NumRows)
		for i := range d {
			d[i] = x.RowNNZ(i)
		}
		return d
	}
	dm, dp := degs(m), degs(p)
	for i, d := range dm {
		if dp[perm[i]] != d {
			t.Fatal("row degree not carried by permutation")
		}
	}
}

func TestRowBlockAndExtractBlock(t *testing.T) {
	m := NewCSR(4, 4, []Coord{
		{0, 0, 1}, {0, 3, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5}, {3, 3, 6},
	})
	b := m.RowBlock(1, 3)
	if b.NumRows != 2 || b.NumCols != 4 || b.NNZ() != 3 {
		t.Fatalf("RowBlock wrong: %d rows %d nnz", b.NumRows, b.NNZ())
	}
	if b.At(0, 1) != 3 || b.At(1, 0) != 4 || b.At(1, 2) != 5 {
		t.Fatal("RowBlock values")
	}
	eb := m.ExtractBlock(ColRange{0, 2}, ColRange{2, 4})
	if eb.NumRows != 2 || eb.NumCols != 2 {
		t.Fatal("ExtractBlock shape")
	}
	if eb.At(0, 1) != 2 { // original (0,3)
		t.Fatal("ExtractBlock rebasing wrong")
	}
	if eb.NNZ() != 1 {
		t.Fatalf("ExtractBlock nnz=%d", eb.NNZ())
	}
}

func TestNnzColsInRange(t *testing.T) {
	m := NewCSR(2, 8, []Coord{{0, 1, 1}, {0, 5, 1}, {1, 5, 1}, {1, 6, 1}, {0, 2, 1}})
	got := m.NnzColsInRange(ColRange{4, 8})
	want := []int{1, 2} // cols 5 and 6, rebased by -4
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NnzColsInRange=%v want %v", got, want)
	}
	all := m.NnzColsInRange(ColRange{0, 8})
	if !reflect.DeepEqual(all, []int{1, 2, 5, 6}) {
		t.Fatalf("full range: %v", all)
	}
	if len(m.NnzColsInRange(ColRange{3, 3})) != 0 {
		t.Fatal("empty range must yield nothing")
	}
}

func TestSpMMAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + int(seed%17)
		if n < 1 {
			n = 15
		}
		m := NewRandom(rng, n, 0.2)
		h := dense.NewRandom(rng, n, 7, 1.0)
		got := m.SpMM(h)
		want := dense.New(n, h.Cols)
		dense.MatMulInto(want, m.ToDense(), h)
		return got.MaxAbsDiff(want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 600
	var coords []Coord
	for i := 0; i < n; i++ {
		for k := 0; k < 5; k++ {
			coords = append(coords, Coord{Row: i, Col: rng.Intn(n), Val: rng.Float64()})
		}
	}
	m := NewCSR(n, n, coords)
	h := dense.NewRandom(rng, n, 9, 1.0)
	got := m.SpMM(h)
	want := dense.New(n, h.Cols)
	dense.MatMulInto(want, m.ToDense(), h)
	if got.MaxAbsDiff(want) > 1e-9 {
		t.Fatalf("parallel SpMM diff %g", got.MaxAbsDiff(want))
	}
}

func TestSpMMAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewRandom(rng, 10, 0.3)
	h := dense.NewRandom(rng, 10, 4, 1.0)
	out := m.SpMM(h)
	twice := m.SpMM(h)
	m.SpMMAddInto(twice, h)
	out.Scale(2)
	if out.MaxAbsDiff(twice) > 1e-10 {
		t.Fatal("SpMMAddInto does not accumulate")
	}
}

func TestFlops(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 1}, {1, 1, 1}, {0, 1, 1}})
	if m.Flops(10) != 60 {
		t.Fatalf("Flops=%d want 60", m.Flops(10))
	}
}

func TestScaleAndClone(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 1, 2}})
	c := m.Clone()
	m.Scale(3)
	if m.At(0, 1) != 6 {
		t.Fatal("Scale failed")
	}
	if c.At(0, 1) != 2 {
		t.Fatal("Clone not independent")
	}
}

func TestFromEdges(t *testing.T) {
	m := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if m.NNZ() != 2 || m.At(0, 1) != 1 || m.At(1, 2) != 1 {
		t.Fatal("FromEdges wrong")
	}
}

func TestToDense(t *testing.T) {
	m := NewCSR(2, 3, []Coord{{1, 2, 4.5}})
	d := m.ToDense()
	if d.Rows != 2 || d.Cols != 3 || d.At(1, 2) != 4.5 || d.At(0, 0) != 0 {
		t.Fatal("ToDense wrong")
	}
}

func BenchmarkSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	var coords []Coord
	for i := 0; i < n; i++ {
		for k := 0; k < 16; k++ {
			coords = append(coords, Coord{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	m := NewCSR(n, n, coords)
	h := dense.NewRandom(rng, n, 64, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SpMM(h)
	}
}

// TestSubmatrixInduced checks Submatrix against ExtractBlock-style manual
// extraction: values, order, and the colPos-scratch restore contract.
func TestSubmatrixInduced(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewRandom(rng, 40, 0.2)
	rows := []int{1, 5, 6, 19, 33}
	// cols must cover every stored column of the selected rows.
	seen := map[int]bool{}
	for _, r := range rows {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			seen[m.ColIdx[p]] = true
		}
	}
	seen[2] = true // a column no selected row uses is fine too
	cols := make([]int, 0, len(seen))
	for c := range seen {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	colPos := make([]int, m.NumCols)
	for i := range colPos {
		colPos[i] = -1
	}
	sub := m.Submatrix(rows, cols, colPos)
	if sub.NumRows != len(rows) || sub.NumCols != len(cols) {
		t.Fatalf("submatrix %dx%d, want %dx%d", sub.NumRows, sub.NumCols, len(rows), len(cols))
	}
	for i, r := range rows {
		for j, c := range cols {
			if got, want := sub.At(i, j), m.At(r, c); got != want {
				t.Fatalf("sub(%d,%d)=%v, m(%d,%d)=%v", i, j, got, r, c, want)
			}
		}
	}
	for i, v := range colPos {
		if v != -1 {
			t.Fatalf("colPos[%d]=%d not restored to -1", i, v)
		}
	}
	// Reused destination: same result, no fresh slices needed on second call.
	dst := &CSR{}
	m.SubmatrixInto(dst, rows, cols, colPos)
	if allocs := testing.AllocsPerRun(10, func() { m.SubmatrixInto(dst, rows, cols, colPos) }); allocs > 0 {
		t.Fatalf("warm SubmatrixInto allocates %v times, want 0", allocs)
	}
}

// TestSubmatrixPanics pins the misuse contract: unsorted index lists and
// uncovered columns are construction bugs, not recoverable errors.
func TestSubmatrixPanics(t *testing.T) {
	m := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		name       string
		rows, cols []int
	}{
		{"unsorted rows", []int{2, 1}, []int{0, 1, 2, 3}},
		{"duplicate cols", []int{1}, []int{1, 1}},
		{"uncovered column", []int{1}, []int{1}},
		{"row out of range", []int{4}, []int{0}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			m.Submatrix(tc.rows, tc.cols, nil)
		}()
	}
}
