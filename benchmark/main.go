// Command benchmark is the repository's wall-clock benchmark: six named
// workloads, end-to-end metrics measured with tracing off, and a per-layer
// ladder measured in a separate traced run. BENCHMARK.json names every
// workload and metric; README.md says how each number is computed.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//	bash benchmark/run.sh [-runs R] [-out file.json]                      every workload, each in a child process
//	bash benchmark/run.sh -compare old.json new.json                      one row per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sagnn"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result line; empty runs every workload")
		seed     = flag.Int64("seed", 1, "inputs (datasets, request lists) are generated from this seed")
		seconds  = flag.Float64("seconds", 10, "length of the timed window of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the per-layer ladder")
		runs     = flag.Int("runs", 1, "every-workload mode: runs per workload, on seeds seed, seed+1, …")
		out      = flag.String("out", "benchmark/out/result.json", "every-workload mode: where the result file goes")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	window := time.Duration(*seconds * float64(time.Second))
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *workload == "":
		err = runAll(*seed, *seconds, *runs, *out)
	default:
		err = runSingle(*workload, *seed, window, *trace != 0)
	}
	if err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

// runSingle is the driver's form: one workload, one result line.
func runSingle(name string, seed int64, window time.Duration, traced bool) error {
	spec, err := findWorkload(name)
	if err != nil {
		return err
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	res, err := runOne(man, spec, runOptions{seed: seed, window: window, traced: traced, traceDir: "benchmark/out", probeScale: 1})
	if err != nil {
		return err
	}
	for _, defs := range [][]metricDef{man.EndToEnd, man.PerLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Printf("%-26s %-32s %14.6g %s\n", spec.name, d.Name, m.Value, m.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOptions are the knobs of one run.
type runOptions struct {
	seed       int64
	window     time.Duration // length of the timed window
	traced     bool
	traceDir   string  // a traced run writes trace_<workload>.json here
	probeScale float64 // 1 for a real run; tests shrink the host probes
}

// runOne generates the workload's inputs from the seed, measures it, checks
// its outputs, and returns the result.
func runOne(man *manifest, spec workloadSpec, o runOptions) (runResult, error) {
	ds, err := loadInputs(spec, o.seed)
	if err != nil {
		return runResult{}, err
	}
	logf("%s: seed %d, %s ÷%d: %d vertices, %d nnz, f=%d", spec.name, o.seed, spec.preset, spec.scaleDiv,
		ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim())
	var (
		c      checker
		values map[string]float64
		defs   = man.EndToEnd
	)
	meter := startStealMeter()
	defer meter.close()
	switch {
	case o.traced:
		defs = man.PerLayer
		values, err = runLadder(man, spec, ds, o, &c)
	case spec.serve != nil:
		values, err = timeServing(spec, ds, o.seed, o.window, meter, &c)
	default:
		values, err = timeTraining(spec, ds, o.window, meter, &c)
	}
	if err != nil {
		return runResult{}, err
	}
	metrics, err := withUnits(defs, values)
	if err != nil {
		return runResult{}, err
	}
	return runResult{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}, nil
}

// timeTraining measures a training workload end to end with tracing off.
// An operation is one epoch. Timings are net of hypervisor steal (steal.go).
func timeTraining(spec workloadSpec, ds *sagnn.Dataset, window time.Duration, meter *stealMeter, c *checker) (map[string]float64, error) {
	tr, err := setUp(spec, ds, meter)
	if err != nil {
		return nil, err
	}
	defer tr.rig.close()
	if tr.timed, tr.epochs, err = tr.rig.runFor(window); err != nil {
		return nil, err
	}
	// Read the high-water mark before the reference runs of the correctness
	// gate allocate their own trainers.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := verifyTraining(tr.rig, ds, tr.warm, tr.timed, c); err != nil {
		return nil, err
	}
	// Volume comes from the warm-up run: a fixed epoch count, so the figure
	// repeats exactly for a seed even where it changes epoch by epoch
	// (sampled batches).
	maxMB, _ := sentMB(tr.warm)
	first, last := tr.epochs[0].start, tr.epochs[len(tr.epochs)-1].end
	blocks := overBlocks(tr.epochs, timingBlocks, meter.netMedianMs)
	logf("%s: set-ups %.3v s; %d timed epochs, block medians %.4v ms, raw median %.4g ms, steal share %.3f", spec.name,
		tr.setupS, len(tr.epochs), blocks, medianMs(tr.epochs), meter.share(first, last))
	return map[string]float64{
		"setup_s":               median(tr.setupS),
		"op_ms":                 median(blocks),
		"ops_per_s":             float64(len(tr.epochs)) / meter.net(first, last),
		"max_sent_mb_per_epoch": maxMB,
		"peak_rss_mb":           rss,
	}, nil
}

// timeServing measures a serving workload end to end with tracing off. An
// operation is one request; training is the bootstrap inside set-up.
func timeServing(spec workloadSpec, ds *sagnn.Dataset, seed int64, window time.Duration, meter *stealMeter, c *checker) (map[string]float64, error) {
	sr, err := setUpServing(spec, ds, seed, meter)
	if err != nil {
		return nil, err
	}
	defer sr.tier.close()
	lr := drive(sr.tier.client, sr.tier.url, sr.rq, clients, 0, window, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	c.attempted += lr.attempted
	c.failed += lr.failed
	if len(lr.samples) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded", spec.name)
	}
	if err := verifyTraining(sr.rig, ds, sr.bootstrap, sr.bootstrap, c); err != nil {
		return nil, err
	}
	maxMB, _ := sentMB(sr.bootstrap)
	blocks := overBlocks(lr.samples, timingBlocks, meter.netMedianMs)
	logf("%s: set-ups %.3v s; %d timed requests (%d failed), block medians %.4v ms, raw median %.4g ms, steal share %.3f", spec.name,
		sr.setupS, lr.attempted, lr.failed, blocks, medianMs(lr.samples), meter.share(lr.start, lr.end))
	return map[string]float64{
		"setup_s":               median(sr.setupS),
		"op_ms":                 median(blocks),
		"ops_per_s":             float64(len(lr.samples)) / meter.net(lr.start, lr.end),
		"max_sent_mb_per_epoch": maxMB,
		"peak_rss_mb":           rss,
	}, nil
}
