package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzCSRFromEdges drives the CSR constructor with arbitrary edge soups —
// duplicates, self loops, hubs, empty lists — and checks the structural
// invariants every SpMM kernel and block extractor assumes: a monotone
// RowPtr bracketing strictly increasing column indices, agreement between
// the three storage arrays, and exact round trips through COO form and
// double transposition.
func FuzzCSRFromEdges(f *testing.F) {
	f.Add(uint8(8), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(4), []byte{3, 3, 3, 3, 0, 3, 3, 0})        // self loops + duplicates
	f.Add(uint8(16), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // hub row
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw%64) + 1
		edges := make([][2]int, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		m := FromEdges(n, edges)

		if m.NumRows != n || m.NumCols != n {
			t.Fatalf("shape %dx%d, want %dx%d", m.NumRows, m.NumCols, n, n)
		}
		if len(m.RowPtr) != n+1 || m.RowPtr[0] != 0 || m.RowPtr[n] != m.NNZ() {
			t.Fatalf("RowPtr ends %d..%d for nnz %d", m.RowPtr[0], m.RowPtr[n], m.NNZ())
		}
		if len(m.ColIdx) != len(m.Val) {
			t.Fatalf("ColIdx len %d, Val len %d", len(m.ColIdx), len(m.Val))
		}
		for r := 0; r < n; r++ {
			if m.RowPtr[r] > m.RowPtr[r+1] {
				t.Fatalf("RowPtr not monotone at row %d", r)
			}
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				c := m.ColIdx[p]
				if c < 0 || c >= n {
					t.Fatalf("row %d: column %d outside [0,%d)", r, c, n)
				}
				if p > m.RowPtr[r] && m.ColIdx[p-1] >= c {
					t.Fatalf("row %d: columns not strictly increasing (%d then %d)", r, m.ColIdx[p-1], c)
				}
				if got := m.At(r, c); got != m.Val[p] {
					t.Fatalf("At(%d,%d)=%v, stored %v", r, c, got, m.Val[p])
				}
			}
		}

		if rt := NewCSR(n, n, m.ToCoords()); !csrEqual(m, rt) {
			t.Fatal("COO round trip changed the matrix")
		}
		if tt := m.Transpose().Transpose(); !csrEqual(m, tt) {
			t.Fatal("double transpose changed the matrix")
		}
	})
}

// csrEqual compares two CSR matrices structurally and by value.
func csrEqual(a, b *CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// refNewCSR is NewCSR's contract written the plain way: a stable sort by
// (row, col), then each run of equal coordinates folded into its first
// entry in input order. It is the COO construction NewCSR had before it
// built by counting, with the stable sort its doc comment now promises.
func refNewCSR(rows, cols int, coords []Coord) *CSR {
	s := slices.Clone(coords)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Row != s[j].Row {
			return s[i].Row < s[j].Row
		}
		return s[i].Col < s[j].Col
	})
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	for i, c := range s {
		if i > 0 && s[i-1].Row == c.Row && s[i-1].Col == c.Col {
			m.Val[len(m.Val)-1] += c.Val
			continue
		}
		m.ColIdx = append(m.ColIdx, c.Col)
		m.Val = append(m.Val, c.Val)
		m.RowPtr[c.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// requireSameCSR fails unless got matches want in shape, structure and the
// bits of every value.
func requireSameCSR(t *testing.T, what string, want, got *CSR) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols ||
		!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: structure differs:\n got %+v\nwant %+v", what, got, want)
	}
	for i, v := range want.Val {
		if math.Float64bits(got.Val[i]) != math.Float64bits(v) {
			t.Fatalf("%s: entry %d = %x (%g), want %x (%g)", what, i, math.Float64bits(got.Val[i]), got.Val[i], math.Float64bits(v), v)
		}
	}
}

// fuzzVals are values whose sums depend on the order they are added in.
var fuzzVals = []float64{0.1, 0.2, 0.3, -0.3, 1e16, -1e16, 1.0 / 3, math.Copysign(0, -1)}

// FuzzNewCSR compares NewCSR with refNewCSR bit for bit: no rows or no
// columns, empty rows, and duplicates two and three deep whose sums change
// with the order of addition.
func FuzzNewCSR(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{})
	f.Add(uint8(3), uint8(0), []byte{})
	f.Add(uint8(4), uint8(4), []byte{0, 1, 0, 3, 2, 1, 0, 0, 2}) // rows 1 and 2 empty
	f.Add(uint8(2), uint8(2), []byte{1, 1, 0, 0, 1, 4, 1, 1, 1}) // a 2-way duplicate
	f.Add(uint8(2), uint8(2), []byte{1, 1, 0, 1, 1, 1, 1, 1, 2}) // a 3-way one, 0.1+0.2+0.3
	f.Add(uint8(2), uint8(2), []byte{1, 1, 2, 1, 1, 1, 1, 1, 0}) // the same, 0.3+0.2+0.1
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		data := make([]byte, 3*rng.Intn(40))
		rng.Read(data)
		f.Add(uint8(rng.Intn(9)), uint8(rng.Intn(9)), data)
	}
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw uint8, data []byte) {
		rows, cols := int(rowsRaw%9), int(colsRaw%9)
		var coords []Coord
		for i := 0; i+2 < len(data) && rows > 0 && cols > 0; i += 3 {
			v := fuzzVals[int(data[i+2])%len(fuzzVals)]
			coords = append(coords, Coord{Row: int(data[i]) % rows, Col: int(data[i+1]) % cols, Val: v})
		}
		requireSameCSR(t, "NewCSR", refNewCSR(rows, cols, coords), NewCSR(rows, cols, coords))
	})
}

// TestPermuteSymmetricBits compares PermuteSymmetric with the COO
// construction it replaced (relabel every entry, then sort) on a
// non-symmetric matrix with empty rows, for the identity, the reversal and
// random permutations.
func TestPermuteSymmetricBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60
	m := hubMatrix(rng, n, n, false)
	identity, reversal := make([]int, n), make([]int, n)
	for i := range identity {
		identity[i], reversal[i] = i, n-1-i
	}
	perms := [][]int{identity, reversal}
	for i := 0; i < 8; i++ {
		perms = append(perms, rng.Perm(n))
	}
	for i, perm := range perms {
		var coords []Coord
		for _, c := range m.ToCoords() {
			coords = append(coords, Coord{Row: perm[c.Row], Col: perm[c.Col], Val: c.Val})
		}
		requireSameCSR(t, fmt.Sprintf("perm %d", i), refNewCSR(n, n, coords), m.PermuteSymmetric(perm))
	}
}
