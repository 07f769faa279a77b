package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// series is one metric of one workload across the runs of a result file.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadResult gathers every run of one workload.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// resultFile is what the every-workload mode writes and -compare reads;
// baseline.json is one of these. Claim is always null: this benchmark
// measures, it does not claim a gain.
type resultFile struct {
	Claim     *string                   `json:"claim"`
	Host      hostFacts                 `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Runs      int                       `json:"runs"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runChild runs one workload in a child process of this binary — so peak
// RSS and garbage-collector state belong to that workload alone — and
// parses the result line.
func runChild(self, workload string, seed int64, seconds float64, trace int) (runResult, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	logf("%s (seed %d, trace %d) took %.1f s", workload, seed, trace, time.Since(start).Seconds())
	if err != nil {
		return runResult{}, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return runResult{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

func (wr *workloadResult) add(into map[string]series, res runResult) {
	wr.Correct = wr.Correct && res.Correct
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	for name, m := range res.Metrics {
		s := into[name]
		s.Unit = m.Unit
		s.Values = append(s.Values, m.Value)
		into[name] = s
	}
}

// runAll is the one command: every workload, runs end-to-end runs each on
// seeds seed, seed+1, … plus one traced run, every run in its own child
// process; prints every metric by name and writes the result file. It fails
// if any run's outputs were wrong.
func runAll(seed int64, seconds float64, runs int, out string) error {
	man, err := loadManifest()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Host: readHostFacts(), Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]workloadResult{}}
	for _, spec := range workloads {
		wr := workloadResult{Correct: true, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		for r := 0; r < runs; r++ {
			res, err := runChild(self, spec.name, seed+int64(r), seconds, 0)
			if err != nil {
				return err
			}
			wr.add(wr.EndToEnd, res)
		}
		res, err := runChild(self, spec.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		wr.add(wr.PerLayer, res)
		file.Workloads[spec.name] = wr
	}

	wrong := 0
	for _, spec := range workloads {
		wr := file.Workloads[spec.name]
		for _, group := range []struct {
			defs []metricDef
			vals map[string]series
		}{{man.EndToEnd, wr.EndToEnd}, {man.PerLayer, wr.PerLayer}} {
			for _, d := range group.defs {
				s := group.vals[d.Name]
				fmt.Printf("%-24s %-30s %14.6g %-8s n=%d spread=%.1f%%\n", spec.name, d.Name, median(s.Values), s.Unit, len(s.Values), 100*spreadShare(s.Values))
			}
		}
		fmt.Printf("%-24s %-30s %14.6g %-8s failed %d of %d\n", spec.name, "failed_share", float64(wr.Failed)/float64(wr.Attempted), "ratio", wr.Failed, wr.Attempted)
		if !wr.Correct {
			wrong++
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if wrong > 0 {
		return fmt.Errorf("%d workload(s) produced wrong outputs", wrong)
	}
	return nil
}

// verdict places a new median against an old one. worse: it moved the wrong
// way by more than bound. better: it moved the right way by more than the
// run-to-run spread. unresolved: the spread of either side (interquartile
// distance ÷ median) exceeds the bound, so the bound cannot be checked.
func verdict(d metricDef, old, new []float64) (delta, spread float64, v string) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		delta = (mn - mo) / math.Abs(mo)
	}
	spread = math.Max(spreadShare(old), spreadShare(new))
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case spread > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	case -worse > spread && worse < 0:
		v = "better"
	default:
		v = "same"
	}
	return delta, spread, v
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and fails if any row is worse.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d arguments", len(args))
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	old, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	cur, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-22s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "spread", "verdict")
	anyWorse := false
	for _, spec := range workloads {
		for _, d := range man.EndToEnd {
			o, n := old.Workloads[spec.name].EndToEnd[d.Name], cur.Workloads[spec.name].EndToEnd[d.Name]
			if len(o.Values) == 0 || len(n.Values) == 0 {
				fmt.Printf("%-24s %-22s missing from one file\n", spec.name, d.Name)
				continue
			}
			delta, spread, v := verdict(d, o.Values, n.Values)
			anyWorse = anyWorse || v == "worse"
			fmt.Printf("%-24s %-22s %12.5g %12.5g %+7.1f%% %6.0f%% %6.1f%%  %s\n", spec.name, d.Name,
				median(o.Values), median(n.Values), 100*delta, 100*d.Bound, 100*spread, v)
		}
		o, n := old.Workloads[spec.name], cur.Workloads[spec.name]
		fmt.Printf("%-24s %-22s %12d %12d  (failed operations; must stay 0)\n", spec.name, "failed", o.Failed, n.Failed)
		anyWorse = anyWorse || n.Failed > 0
	}
	if anyWorse {
		return errWorse
	}
	return nil
}
