package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"sagnn"
	"sagnn/internal/gen"
)

// Every workload trains the same model on the same cluster shape; only the
// dataset, the algorithm, the transport and what is timed differ.
const (
	processes  = 4
	modelSeed  = 7
	gvbSeed    = 1
	graphSeed  = 1 // graph and splits of every preset; labels and features follow --seed
	refEpochs  = 5 // leading epochs compared bit-for-bit against the sim transport
	serialRefs = 3 // leading epochs compared against the single-process trainer

	sampleFanout = 5
	sampleBatch  = 256

	clients         = 2 // closed loop: the contract sizes load to nproc (2) from one generator
	perRequest      = 8 // distinct vertices per request
	zipfS           = 1.2
	requestListN    = 1 << 14 // pre-generated requests; clients cycle through them
	timingBlocks    = 5
	bootstrapEpochs = 3 // epochs trained before a serving workload starts serving
)

// serveSpec describes the serving tier of a serving workload.
type serveSpec struct {
	routed    bool // router over replicas, else one server reached directly
	replicas  int
	cacheSize int
	zipf      bool // Zipf(zipfS) popularity, else uniform
	warm      int  // warm-up requests before timing
}

// workloadSpec is one named workload. The reason each exists is recorded in
// BENCHMARK.json and README.md.
type workloadSpec struct {
	name     string
	preset   sagnn.Preset
	scaleDiv int
	alg      sagnn.Algorithm
	gvb      bool // partition with GVB before distributing
	tcp      bool // four TCP worlds on loopback instead of the sim transport
	sampled  bool // Session.RunSampled instead of Session.Run
	warm     int  // warm-up epochs, counted in setup_s
	serve    *serveSpec
}

var workloads = []workloadSpec{
	{name: "fullbatch-sa-sim", preset: sagnn.RedditSim, scaleDiv: 1, alg: sagnn.SparsityAware1D, gvb: true, warm: 5},
	{name: "fullbatch-oblivious-tcp", preset: sagnn.AmazonSim, scaleDiv: 8, alg: sagnn.Oblivious1D, tcp: true, warm: refEpochs},
	{name: "fullbatch-sa-tcp", preset: sagnn.AmazonSim, scaleDiv: 8, alg: sagnn.SparsityAware1D, gvb: true, tcp: true, warm: refEpochs},
	{name: "sampled-sa-sim", preset: sagnn.ProteinSim, scaleDiv: 4, alg: sagnn.SparsityAware1D, gvb: true, sampled: true, warm: 3},
	{name: "serve-router-zipf", preset: sagnn.ProteinSim, scaleDiv: 8, alg: sagnn.SparsityAware1D, gvb: true, warm: bootstrapEpochs,
		serve: &serveSpec{routed: true, replicas: 2, cacheSize: 512, zipf: true, warm: 500}},
	{name: "serve-direct-uniform", preset: sagnn.ProteinSim, scaleDiv: 8, alg: sagnn.SparsityAware1D, gvb: true, warm: bootstrapEpochs,
		serve: &serveSpec{replicas: 1, cacheSize: -1, warm: 100}},
}

// loadInputs generates a workload's dataset. The graph and the
// train/validation/test split are the preset's at a fixed generator seed, so
// partition quality, sampled batches and communication volume are properties
// of the workload and repeat exactly; what the seed draws is what the vertices
// carry — labels and feature vectors — with the parameters gen.Load itself
// uses.
func loadInputs(spec workloadSpec, seed int64) (*sagnn.Dataset, error) {
	ds, err := gen.Load(spec.preset, graphSeed, spec.scaleDiv)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ds.Labels = gen.RandomLabels(rng, ds.G.NumVertices(), ds.Classes)
	ds.Features = gen.Features(rng, ds.Labels, ds.Classes, ds.FeatureDim(), 0.5)
	return ds, nil
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadSpec) modelConfig() sagnn.ModelConfig {
	return sagnn.ModelConfig{Hidden: 16, Layers: 3, LR: 0.05, Seed: modelSeed}
}

func (w workloadSpec) distOpts() sagnn.DistOpts {
	o := sagnn.DistOpts{Algorithm: w.alg, Exec: sagnn.ExecSequential}
	if w.gvb {
		o.Partitioner = sagnn.NewGVB(gvbSeed)
	}
	if w.sampled {
		o.Sampling = &sagnn.SamplingConfig{Fanout: sampleFanout, BatchSize: sampleBatch}
	}
	return o
}

// metricDef and manifest mirror BENCHMARK.json, the one place metric names,
// units, directions and bounds are written down.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json from the checkout root (the working
// directory of a run) or from the parent directory (go test runs inside
// benchmark/).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a single-workload run prints as its last
// line of standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches the manifest's units to computed values and insists
// the two name sets are identical: a metric the manifest lists but the run
// did not compute (or the reverse) is a harness bug, not a zero.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}
