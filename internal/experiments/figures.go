package experiments

import (
	"fmt"
	"io"
	"sort"

	"sagnn"
	"sagnn/internal/distmm"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/partition"
)

// Table2Row reproduces one row of Table 2: average and maximum data
// communicated by a process in a single SpMM when the matrix is distributed
// with the edgecut-only (METIS-style) partitioner.
type Table2Row struct {
	P            int
	AvgMB        float64
	MaxMB        float64
	ImbalancePct float64
}

// Table2 computes the METIS communication-imbalance table on the Amazon
// stand-in with f = 300 (the paper's setting). Volumes come directly from
// the partition's send sets; no training run is needed.
func Table2(scaleDiv int, ps []int, seed int64) ([]Table2Row, error) {
	ds, err := loadDataset(gen.AmazonSim, seed, scaleDiv)
	if err != nil {
		return nil, err
	}
	const f = 300
	rows := make([]Table2Row, 0, len(ps))
	for _, p := range ps {
		part := partition.MetisLike{Seed: seed}.Partition(ds.G, p)
		vs := partition.Volumes(ds.G, part)
		bytesPerRow := float64(f * machine.BytesPerElem)
		avg := float64(vs.TotalRows) / float64(p) * bytesPerRow / 1e6
		maxv := float64(vs.MaxSendRows) * bytesPerRow / 1e6
		rows = append(rows, Table2Row{
			P:            p,
			AvgMB:        avg,
			MaxMB:        maxv,
			ImbalancePct: vs.Imbalance * 100,
		})
	}
	return rows, nil
}

// Series is one line of a figure: epoch seconds (and breakdowns) per
// process count.
type Series struct {
	Scheme  Scheme
	Dataset gen.Preset
	C       int
	Points  []RunResult
}

// oneDSchemes are the three schemes of the paper's scaling figures.
var oneDSchemes = []Scheme{SchemeCAGNET, SchemeSA, SchemeSAGVB}

// sweep runs every scheme at every process count at replication factor c:
// one Series per scheme, one point per process count.
func sweep(dataset gen.Preset, scaleDiv int, ps []int, c int, schemes []Scheme, seed int64) ([]Series, error) {
	out := make([]Series, 0, len(schemes))
	for _, s := range schemes {
		ser := Series{Scheme: s, Dataset: dataset, C: c}
		for _, p := range ps {
			pt, err := Run(RunConfig{Dataset: dataset, ScaleDiv: scaleDiv, P: p, C: c, Scheme: s, Seed: seed})
			if err != nil {
				return nil, err
			}
			ser.Points = append(ser.Points, pt)
		}
		out = append(out, ser)
	}
	return out, nil
}

// Figure3 reproduces the 1D scaling study: CAGNET vs SA vs SA+GVB across
// process counts for one dataset. The same results feed Figure 4 (the
// breakdown is captured in every RunResult).
func Figure3(dataset gen.Preset, scaleDiv int, ps []int, seed int64) ([]Series, error) {
	return sweep(dataset, scaleDiv, ps, 1, oneDSchemes, seed)
}

// Figure5 reproduces the Papers experiment: all three 1D schemes at a
// single process count (p=16 in the paper).
func Figure5(scaleDiv int, p int, seed int64) ([]RunResult, error) {
	series, err := sweep(gen.PapersSim, scaleDiv, []int{p}, 1, oneDSchemes, seed)
	return FlattenSeries(series), err
}

// Figure6 compares the two partitioners under sparsity-aware training:
// SA+GVB vs SA+METIS.
func Figure6(dataset gen.Preset, scaleDiv int, ps []int, seed int64) ([]Series, error) {
	return sweep(dataset, scaleDiv, ps, 1, []Scheme{SchemeSAMetis, SchemeSAGVB}, seed)
}

// Figure7 reproduces the 1.5D study: oblivious vs SA vs SA+GVB at
// replication factors c for one dataset. Process counts whose grid
// distmm.Spec rejects at c are skipped, mirroring the paper's grid
// constraints.
func Figure7(dataset gen.Preset, scaleDiv int, ps []int, cs []int, seed int64) ([]Series, error) {
	var out []Series
	for _, c := range cs {
		var grid []int
		for _, p := range ps {
			if distmm.Spec(string(sagnn.SparsityAware15D), c, p).Skip == "" {
				grid = append(grid, p)
			}
		}
		series, err := sweep(dataset, scaleDiv, grid, c, oneDSchemes, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, series...)
	}
	return out, nil
}

// PrintTable2 renders Table 2 in the paper's format.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: METIS-partitioned Amazon, single SpMM, f=300\n")
	fmt.Fprintf(w, "%6s %12s %12s %14s\n", "p", "average(MB)", "max(MB)", "imbalance %")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12.1f %12.1f %13.1f%%\n", r.P, r.AvgMB, r.MaxMB, r.ImbalancePct)
	}
}

// PrintSeries renders scaling lines (Figures 3, 6, 7).
func PrintSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintln(w, title)
	for _, s := range series {
		label := string(s.Scheme)
		if s.C > 1 {
			label = fmt.Sprintf("%s(c=%d)", s.Scheme, s.C)
		}
		fmt.Fprintf(w, "  %-14s %s\n", label, s.Dataset)
		for _, pt := range s.Points {
			fmt.Fprintf(w, "    p=%-4d epoch=%9.5fs setup=%9.5fs  avgSent=%8.2fMB maxSent=%8.2fMB imbal=%6.1f%%\n",
				pt.Config.P, pt.EpochSeconds, pt.SetupSeconds, pt.AvgSentMB, pt.MaxSentMB, pt.ImbalancePct())
		}
	}
}

// PrintBreakdown renders the per-phase bars of Figures 4 and 5.
func PrintBreakdown(w io.Writer, title string, results []RunResult) {
	fmt.Fprintln(w, title)
	for _, r := range results {
		fmt.Fprintf(w, "  %-10s p=%-4d total=%9.5fs setup=%9.5fs :", r.Config.Scheme, r.Config.P, r.EpochSeconds, r.SetupSeconds)
		phases := make([]string, 0, len(r.Breakdown))
		for ph := range r.Breakdown {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			fmt.Fprintf(w, "  %s=%9.5fs", ph, r.Breakdown[ph])
		}
		fmt.Fprintln(w)
	}
}

// FlattenSeries lists every point of every series, for breakdown printing.
func FlattenSeries(series []Series) []RunResult {
	var out []RunResult
	for _, s := range series {
		out = append(out, s.Points...)
	}
	return out
}
