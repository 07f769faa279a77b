// Command gnnbench regenerates the paper's tables and figures from the
// command line.
//
// Usage:
//
//	gnnbench -exp table2|fig3|fig4|fig5|fig6|fig7|ablation|all \
//	         [-dataset reddit-sim|amazon-sim|protein-sim|papers-sim] \
//	         [-scalediv N] [-seed S]
//	gnnbench -estimate [-p N] [-dataset ...] [-scalediv N] [-seed S] \
//	         [-exec seq|overlap] [-calibrate] [-alpha A] [-beta B]
//
// -scalediv divides the preset dataset sizes by a power-of-two factor;
// 1 runs the full preset sizes (slow), 4 is a good laptop default.
//
// -estimate prints the predicted-vs-measured cost table without training:
// every algorithm candidate (1D, 1.5D over c ∈ {2,4}) priced from its
// compiled communication plan by Cluster.Estimate, verified against the
// volumes of one executed SpMM. The α–β constants the table prices
// with can come from the calibration probe (-calibrate fits them against
// the simulated backend) or be set directly (-alpha/-beta, e.g. values a
// TCP `train -calibrate` run measured on real links) — this is how
// measured hardware parameters drive the AlgorithmAuto decision.
//
// Every experiment runs through the public API (NewCluster → Distribute →
// NewSession → Run, Cluster.Estimate); a bad flag value — an unknown
// dataset, a process count the grid forbids — is printed as that API's
// error and exits 2. For one training measurement (modeled epoch, phases,
// volumes, test accuracy, fitted α–β) use cmd/train; for wall-clock
// numbers use benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sagnn"
	"sagnn/internal/experiments"
	"sagnn/internal/gen"
)

// check prints a failed experiment's error and exits 2: flag values reach
// the public API unvalidated, and its errors are the diagnostics.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment: table2, table3, fig3, fig4, fig5, fig6, fig7, ablation, all")
	dataset := flag.String("dataset", "", "restrict to one dataset preset (default: the paper's set per experiment)")
	scaleDiv := flag.Int("scalediv", 4, "divide preset dataset sizes by this power-of-two factor (1 = full)")
	seed := flag.Int64("seed", 42, "random seed")
	estimate := flag.Bool("estimate", false, "print the predicted-vs-measured cost table (no training) and exit")
	procs := flag.Int("p", 16, "process count for -estimate")
	execMode := flag.String("exec", "seq", "plan executor for the measured multiply of -estimate: seq (stage by stage) or overlap (pipelined)")
	calib := flag.Bool("calibrate", false, "fit α–β with the calibration probe (simulated backend) and price -estimate with the fitted values")
	alphaF := flag.Float64("alpha", 0, "override machine α in seconds for -estimate (e.g. a value measured by `train -transport tcp -calibrate`)")
	betaF := flag.Float64("beta", 0, "override machine β in seconds per logical byte for -estimate")
	flag.Parse()

	t0 := time.Now()
	if *estimate {
		mode := sagnn.ExecSequential
		switch *execMode {
		case "seq", "sequential":
		case "overlap":
			mode = sagnn.ExecOverlap
		default:
			fmt.Fprintf(os.Stderr, "-exec must be seq or overlap, got %q\n", *execMode)
			os.Exit(2)
		}
		params := estimateParams(*calib, *alphaF, *betaF, *procs)
		runEstimate(*dataset, *scaleDiv, *procs, *seed, mode, params)
		fmt.Printf("\ncompleted in %v\n", time.Since(t0).Round(time.Millisecond))
		return
	}
	switch *exp {
	case "table3":
		runTable3(*scaleDiv, *seed)
	case "table2":
		runTable2(*scaleDiv, *seed)
	case "fig3":
		runFig3(*dataset, *scaleDiv, *seed)
	case "fig4":
		runFig4(*dataset, *scaleDiv, *seed)
	case "fig5":
		runFig5(*scaleDiv, *seed)
	case "fig6":
		runFig6(*dataset, *scaleDiv, *seed)
	case "fig7":
		runFig7(*dataset, *scaleDiv, *seed)
	case "ablation":
		runAblation(*scaleDiv, *seed)
	case "all":
		runTable3(*scaleDiv, *seed)
		runTable2(*scaleDiv, *seed)
		runFig3(*dataset, *scaleDiv, *seed)
		runFig4(*dataset, *scaleDiv, *seed)
		runFig5(*scaleDiv, *seed)
		runFig6(*dataset, *scaleDiv, *seed)
		runFig7(*dataset, *scaleDiv, *seed)
		runAblation(*scaleDiv, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(t0).Round(time.Millisecond))
}

func datasetsOr(flagVal string, defaults []gen.Preset) []gen.Preset {
	if flagVal == "" {
		return defaults
	}
	return []gen.Preset{gen.Preset(flagVal)}
}

// estimateParams assembles the machine model the estimate table prices with:
// Perlmutter defaults, optionally replaced by probe-fitted values
// (-calibrate) and then by explicit -alpha/-beta overrides (strongest).
func estimateParams(calibrate bool, alpha, beta float64, p int) sagnn.MachineParams {
	params := sagnn.Perlmutter()
	if calibrate {
		cluster, err := sagnn.NewCluster(max(p, 2)) // the probe needs two ranks
		check(err)
		cal, err := cluster.Calibrate()
		check(err)
		params = cal.Params
		fmt.Printf("calibrated α = %.3e s, β = %.3e s/B (%.2f GB/s) against the simulated backend\n\n",
			cal.Alpha, cal.Beta, 1/(cal.Beta*1e9))
	}
	if alpha > 0 {
		params.Alpha = alpha
	}
	if beta > 0 {
		params.Beta = beta
	}
	return params
}

func runEstimate(dataset string, scaleDiv, p int, seed int64, mode sagnn.ExecMode, params sagnn.MachineParams) {
	for _, ds := range datasetsOr(dataset, []gen.Preset{gen.RedditSim, gen.AmazonSim, gen.ProteinSim}) {
		rows, err := experiments.EstimateTable(ds, scaleDiv, p, seed, mode, params)
		check(err)
		experiments.PrintEstimateTable(os.Stdout,
			fmt.Sprintf("Predicted vs measured communication cost — %s, P=%d, exec=%s, α=%.2e β=%.2e",
				ds, p, mode, params.Alpha, params.Beta), rows)
		fmt.Println()
	}
}

func runTable3(scaleDiv int, seed int64) {
	rows, err := experiments.Table3(scaleDiv, seed)
	check(err)
	experiments.PrintTable3(os.Stdout, rows)
	fmt.Println()
}

func runTable2(scaleDiv int, seed int64) {
	rows, err := experiments.Table2(scaleDiv, []int{16, 32, 64, 128, 256}, seed)
	check(err)
	experiments.PrintTable2(os.Stdout, rows)
	fmt.Println()
}

func fig3Procs(ds gen.Preset) []int {
	if ds == gen.RedditSim {
		return []int{4, 16, 32, 64}
	}
	return []int{4, 16, 32, 64, 128, 256}
}

func runFig3(dataset string, scaleDiv int, seed int64) {
	for _, ds := range datasetsOr(dataset, []gen.Preset{gen.RedditSim, gen.AmazonSim, gen.ProteinSim}) {
		series, err := experiments.Figure3(ds, scaleDiv, fig3Procs(ds), seed)
		check(err)
		experiments.PrintSeries(os.Stdout, fmt.Sprintf("Figure 3 — 1D scaling (%s)", ds), series)
		fmt.Println()
	}
}

func runFig4(dataset string, scaleDiv int, seed int64) {
	for _, ds := range datasetsOr(dataset, []gen.Preset{gen.RedditSim, gen.AmazonSim, gen.ProteinSim}) {
		series, err := experiments.Figure3(ds, scaleDiv, []int{16, 64}, seed)
		check(err)
		experiments.PrintBreakdown(os.Stdout, fmt.Sprintf("Figure 4 — 1D breakdown (%s)", ds),
			experiments.FlattenSeries(series))
		fmt.Println()
	}
}

func runFig5(scaleDiv int, seed int64) {
	res, err := experiments.Figure5(scaleDiv, 16, seed)
	check(err)
	experiments.PrintBreakdown(os.Stdout, "Figure 5 — Papers, p=16", res)
	fmt.Println()
}

func runFig6(dataset string, scaleDiv int, seed int64) {
	for _, ds := range datasetsOr(dataset, []gen.Preset{gen.AmazonSim, gen.ProteinSim}) {
		series, err := experiments.Figure6(ds, scaleDiv, []int{4, 16, 32, 64}, seed)
		check(err)
		experiments.PrintSeries(os.Stdout, fmt.Sprintf("Figure 6 — GVB vs METIS (%s)", ds), series)
		fmt.Println()
	}
}

func runFig7(dataset string, scaleDiv int, seed int64) {
	for _, ds := range datasetsOr(dataset, []gen.Preset{gen.AmazonSim, gen.ProteinSim}) {
		series, err := experiments.Figure7(ds, scaleDiv, []int{16, 32, 64, 128, 256}, []int{2, 4}, seed)
		check(err)
		experiments.PrintSeries(os.Stdout, fmt.Sprintf("Figure 7 — 1.5D (%s)", ds), series)
		fmt.Println()
	}
}

func runAblation(scaleDiv int, seed int64) {
	rows, err := experiments.AblationGVBVolumePhase(gen.AmazonSim, scaleDiv, 64, seed)
	check(err)
	fmt.Println("Ablation — GVB volume-refinement phase (amazon-sim, k=64)")
	for _, r := range rows {
		fmt.Printf("  %s\n", r.Quality)
	}
	fmt.Println()
	res, err := experiments.AblationReplication(gen.ProteinSim, scaleDiv, 64, []int{1, 2, 4, 8}, seed)
	check(err)
	experiments.PrintBreakdown(os.Stdout, "Ablation — replication sweep (protein-sim, p=64)", res)
}
