package graphio

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/sparse"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
% also comment
0 1
1 2

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Adj.At(1, 2) != 1 {
		t.Fatal("edge missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0",     // too few fields
		"a b",   // not integers
		"-1 2",  // negative
		"0 5\n", // with n=3 below: out of range
	}
	for i, c := range cases {
		n := 0
		if i == 3 {
			n = 3
		}
		if _, err := ReadEdgeList(strings.NewReader(c), n); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(100, 6, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for _, c := range g.Adj.ToCoords() {
		if g2.Adj.At(c.Row, c.Col) == 0 {
			t.Fatal("edge lost in round trip")
		}
	}
}

func TestMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 2
1 2 5.5
3 4 -1
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 3 || m.NumCols != 4 || m.NNZ() != 2 {
		t.Fatalf("shape %dx%d nnz %d", m.NumRows, m.NumCols, m.NNZ())
	}
	if m.At(0, 1) != 5.5 || m.At(2, 3) != -1 {
		t.Fatal("values wrong")
	}
}

func TestMatrixMarketSymmetricPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) mirrored to (1,2); diagonal (3,3) not duplicated
	if m.NNZ() != 3 {
		t.Fatalf("nnz %d want 3", m.NNZ())
	}
	if m.At(1, 0) != 1 || m.At(0, 1) != 1 || m.At(2, 2) != 1 {
		t.Fatal("symmetric expansion wrong")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
	}
	for i, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := sparse.NewRandom(rng, 20, 0.15)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NNZ() != m.NNZ() {
		t.Fatal("nnz changed")
	}
	for _, c := range m.ToCoords() {
		if m2.At(c.Row, c.Col) != c.Val {
			t.Fatal("value changed")
		}
	}
}

func TestFeaturesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := dense.NewRandom(rng, 7, 5, 2.0)
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadFeatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.MaxAbsDiff(m) != 0 {
		t.Fatalf("features changed by %g", m2.MaxAbsDiff(m))
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := []int{3, 1, 4, 1, 5, 9, 2, 6}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatal("length changed")
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatal("labels changed")
		}
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.txt")
	g := gen.ErdosRenyi(50, 4, 4)
	if err := SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeListFile(path, 50)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("file round trip lost edges")
	}
	if _, err := LoadEdgeListFile(filepath.Join(dir, "missing.txt"), 0); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestMatrixMarketDuplicatesSumInFileOrder pins NewCSR's duplicate contract
// where a reader can see it: three entries of one coordinate are summed in
// file order, and (0.1+0.2)+0.3 rounds differently from (0.3+0.2)+0.1.
func TestMatrixMarketDuplicatesSumInFileOrder(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 6
1 1 0.1
2 2 0.3
1 1 0.2
2 2 0.2
1 1 0.3
2 2 0.1
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.At(0, 0) != 0.6000000000000001 || m.At(1, 1) != 0.6 {
		t.Fatalf("nnz %d, sums %v and %v; want 2, 0.6000000000000001 and 0.6", m.NNZ(), m.At(0, 0), m.At(1, 1))
	}
}
