// Package graphio writes a dataset in the on-disk formats the paper's
// datasets ship in: whitespace-separated edge lists (SNAP style, used for
// Reddit/Amazon exports) and MatrixMarket coordinate files (used for the
// HipMCL Protein matrix), plus a simple text format for features and
// labels, so generated stand-ins can be inspected by external tooling. It
// writes these formats and does not read them; the package's tests hold the
// readers that check what it writes reads back.
package graphio

import (
	"bufio"
	"fmt"
	"io"

	"sagnn/internal/dense"
	"sagnn/internal/graph"
	"sagnn/internal/sparse"
)

// WriteEdgeList emits one "u v" line per stored edge.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			fmt.Fprintf(bw, "%d %d\n", v, u)
		}
	}
	return bw.Flush()
}

// WriteMatrixMarket emits a general real coordinate MatrixMarket file.
func WriteMatrixMarket(w io.Writer, m *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", m.NumRows, m.NumCols, m.NNZ())
	for _, c := range m.ToCoords() {
		fmt.Fprintf(bw, "%d %d %.17g\n", c.Row+1, c.Col+1, c.Val)
	}
	return bw.Flush()
}

// WriteFeatures emits a dense matrix as "rows cols" then one row per line.
func WriteFeatures(w io.Writer, m *dense.Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%.17g", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteLabels emits one integer label per line.
func WriteLabels(w io.Writer, labels []int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(labels))
	for _, l := range labels {
		fmt.Fprintf(bw, "%d\n", l)
	}
	return bw.Flush()
}
