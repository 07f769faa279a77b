package experiments

import (
	"fmt"
	"io"

	"sagnn/internal/gen"
)

// Table3Row describes one dataset stand-in next to the paper's original
// (Table 3 of the paper).
type Table3Row struct {
	Name          string
	Vertices      int
	Edges         int
	Features      int
	Labels        int
	AvgDegree     float64
	DegreeCV      float64
	PaperVertices int64
	PaperEdges    int64
}

// paperTable3 holds the original datasets' sizes for side-by-side printing.
var paperTable3 = map[gen.Preset][2]int64{
	gen.RedditSim:  {232_965, 114_848_857},
	gen.AmazonSim:  {14_249_639, 230_788_269},
	gen.ProteinSim: {8_745_542, 2_116_240_124},
	gen.PapersSim:  {111_059_956, 3_231_371_744},
}

// Table3 loads every preset and reports its properties alongside the
// paper's original dataset sizes.
func Table3(scaleDiv int, seed int64) ([]Table3Row, error) {
	rows := make([]Table3Row, 0, len(gen.AllPresets))
	for _, p := range gen.AllPresets {
		ds, err := loadDataset(p, seed, scaleDiv)
		if err != nil {
			return nil, err
		}
		st := ds.G.Degrees()
		orig := paperTable3[p]
		rows = append(rows, Table3Row{
			Name:          ds.Name,
			Vertices:      ds.G.NumVertices(),
			Edges:         ds.G.NumEdges(),
			Features:      ds.FeatureDim(),
			Labels:        ds.Classes,
			AvgDegree:     st.Mean,
			DegreeCV:      st.CV,
			PaperVertices: orig[0],
			PaperEdges:    orig[1],
		})
	}
	return rows, nil
}

// PrintTable3 renders the dataset table with the paper's originals.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: dataset stand-ins (paper original sizes in parentheses)")
	fmt.Fprintf(w, "%-13s %10s %12s %6s %7s %8s %7s\n",
		"graph", "vertices", "edges", "feat", "labels", "avgdeg", "degCV")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %10d %12d %6d %7d %8.1f %7.2f   (paper: %d / %d)\n",
			r.Name, r.Vertices, r.Edges, r.Features, r.Labels, r.AvgDegree, r.DegreeCV,
			r.PaperVertices, r.PaperEdges)
	}
}
