package graphio

// The readers below parse the formats the writers emit. No program reads a
// dataset from disk, so they live with the tests, where the round-trip
// tests use them to check that what the writers emit reads back exactly.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sagnn/internal/dense"
	"sagnn/internal/graph"
	"sagnn/internal/sparse"
)

// maxEntities bounds every size a parser trusts from its input — vertex
// ids, matrix dimensions, entry counts, feature elements, label counts.
// Parsers allocate proportionally to these declared sizes, so an unchecked
// header like "1000000000 1000000000" would commit gigabytes before reading
// a single entry (and a negative or overflowing one would panic the
// allocator — bugs the fuzz targets surfaced). 1<<25 is ~1.7× the largest
// preset's feature matrix and >250× its vertex count.
const maxEntities = 1 << 25

// checkEntities validates a size declared by an input file.
func checkEntities(what string, n int) error {
	if n < 0 {
		return fmt.Errorf("graphio: negative %s count %d", what, n)
	}
	if n > maxEntities {
		return fmt.Errorf("graphio: %s count %d exceeds the supported maximum %d", what, n, maxEntities)
	}
	return nil
}

// ReadEdgeList parses a whitespace-separated "u v" edge list. Lines
// starting with '#' or '%' are comments. Vertex count is inferred as
// max id + 1 unless n > 0 is given.
func ReadEdgeList(r io.Reader, n int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var edges [][2]int
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v', got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative vertex id", line)
		}
		if u >= maxEntities || v >= maxEntities {
			return nil, fmt.Errorf("graphio: line %d: vertex id %d exceeds the supported maximum %d", line, max(u, v), maxEntities)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, [2]int{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		n = maxID + 1
	} else if maxID >= n {
		return nil, fmt.Errorf("graphio: vertex id %d outside declared n=%d", maxID, n)
	}
	return graph.FromEdges(n, edges), nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate file into a CSR matrix.
// Supports "general" and "symmetric" pattern/real matrices; 1-based indices
// per the format. Symmetric entries are mirrored.
func ReadMatrixMarket(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graphio: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("graphio: unsupported MatrixMarket header %q", sc.Text())
	}
	pattern := header[3] == "pattern"
	symmetric := len(header) >= 5 && header[4] == "symmetric"

	// skip comments, read size line
	var rows, cols, nnz int
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if _, err := fmt.Sscan(text, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("graphio: bad size line %q: %v", text, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("graphio: bad dimensions %dx%d", rows, cols)
	}
	if err := checkEntities("row", rows); err != nil {
		return nil, err
	}
	if err := checkEntities("column", cols); err != nil {
		return nil, err
	}
	if err := checkEntities("entry", nnz); err != nil {
		return nil, err
	}
	coords := make([]sparse.Coord, 0, nnz)
	read := 0
	for sc.Scan() && read < nnz {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: bad entry %q", text)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, err
		}
		val := 1.0
		if !pattern {
			if len(fields) < 3 {
				return nil, fmt.Errorf("graphio: missing value in %q", text)
			}
			if val, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, err
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("graphio: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		coords = append(coords, sparse.Coord{Row: i - 1, Col: j - 1, Val: val})
		if symmetric && i != j {
			coords = append(coords, sparse.Coord{Row: j - 1, Col: i - 1, Val: val})
		}
		read++
	}
	if read != nnz {
		return nil, fmt.Errorf("graphio: expected %d entries, found %d", nnz, read)
	}
	return sparse.NewCSR(rows, cols, coords), nil
}

// ReadFeatures parses the WriteFeatures format.
func ReadFeatures(r io.Reader) (*dense.Matrix, error) {
	br := bufio.NewReader(r)
	var rows, cols int
	if _, err := fmt.Fscan(br, &rows, &cols); err != nil {
		return nil, fmt.Errorf("graphio: bad feature header: %v", err)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("graphio: bad feature shape %dx%d", rows, cols)
	}
	if cols > 0 && rows > maxEntities/cols {
		return nil, fmt.Errorf("graphio: feature shape %dx%d exceeds the supported maximum of %d elements", rows, cols, maxEntities)
	}
	m := dense.New(rows, cols)
	for i := range m.Data {
		if _, err := fmt.Fscan(br, &m.Data[i]); err != nil {
			return nil, fmt.Errorf("graphio: feature element %d: %v", i, err)
		}
	}
	return m, nil
}

// ReadLabels parses the WriteLabels format.
func ReadLabels(r io.Reader) ([]int, error) {
	br := bufio.NewReader(r)
	var n int
	if _, err := fmt.Fscan(br, &n); err != nil {
		return nil, fmt.Errorf("graphio: bad label header: %v", err)
	}
	if err := checkEntities("label", n); err != nil {
		return nil, err
	}
	labels := make([]int, n)
	for i := range labels {
		if _, err := fmt.Fscan(br, &labels[i]); err != nil {
			return nil, fmt.Errorf("graphio: label %d: %v", i, err)
		}
	}
	return labels, nil
}

// LoadEdgeListFile opens and parses an edge-list file.
func LoadEdgeListFile(path string, n int) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, n)
}

// SaveEdgeListFile writes a graph to an edge-list file.
func SaveEdgeListFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteEdgeList(f, g)
}
