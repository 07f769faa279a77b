package gen

import (
	"fmt"
	"math/rand"
	"sync"

	"sagnn/internal/dense"
	"sagnn/internal/graph"
	"sagnn/internal/sparse"
)

// Dataset bundles everything one experiment needs: the graph, vertex
// features, labels, and train/val/test masks. It also owns what every
// trainer and model derives from G and Features alone — Â and Â·X — built
// on first use and shared by all readers (NormalizedAdjacency,
// InputProduct). A shallow copy shares them until its G or Features is
// replaced.
type Dataset struct {
	Name     string
	G        *graph.Graph
	Features *dense.Matrix
	Labels   []int
	Classes  int
	Train    []int
	Val      []int
	Test     []int

	derived *derived
}

// derived is Â and Â·X of one (G, Features) pair, each built once. Readers
// must not write either.
type derived struct {
	g    *graph.Graph
	x    *dense.Matrix
	a    *sparse.CSR
	once sync.Once
	ax   *dense.Matrix
}

// derivedMu guards every Dataset's derived pointer. It is held while a cell
// and its Â are built (a few milliseconds at the largest preset), never
// while Â·X is.
var derivedMu sync.Mutex

// cell returns the derived cell of the dataset's current G and Features,
// starting a new one if either has been replaced since the last call.
func (d *Dataset) cell() *derived {
	derivedMu.Lock()
	defer derivedMu.Unlock()
	if c := d.derived; c == nil || c.g != d.G || c.x != d.Features {
		d.derived = &derived{g: d.G, x: d.Features, a: d.G.NormalizedAdjacency()}
	}
	return d.derived
}

// NormalizedAdjacency returns Â = D^{-1/2}(A+I)D^{-1/2} of G, built on the
// first call and shared by every later one. Safe for concurrent use.
func (d *Dataset) NormalizedAdjacency() *sparse.CSR { return d.cell().a }

// InputProduct returns Â·X, the first layer's aggregate: it depends on no
// weight, so it is built on the first call and shared by every model that
// predicts on the dataset. Safe for concurrent use.
func (d *Dataset) InputProduct() *dense.Matrix {
	c := d.cell()
	c.once.Do(func() { c.ax = c.a.SpMM(c.x) })
	return c.ax
}

// FeatureDim returns f, the per-vertex feature width.
func (d *Dataset) FeatureDim() int { return d.Features.Cols }

// Preset identifies one of the scaled dataset stand-ins; see Table 3 of the
// paper for the originals.
type Preset string

// The four presets mirror the paper's datasets (Table 3), scaled down ~100×
// in vertices while preserving feature width, label count, and the
// structural property that drives each result: Reddit small+dense+irregular,
// Amazon large+sparse+irregular, Protein dense+regular, Papers
// largest+sparse.
const (
	RedditSim  Preset = "reddit-sim"
	AmazonSim  Preset = "amazon-sim"
	ProteinSim Preset = "protein-sim"
	PapersSim  Preset = "papers-sim"
)

// AllPresets lists the presets in the paper's order.
var AllPresets = []Preset{RedditSim, AmazonSim, ProteinSim, PapersSim}

// presetSpec captures the generator parameters for a preset.
type presetSpec struct {
	kind       string // "rmat" or "banded"
	scaleLog2  int
	edgeFactor int
	halfWidth  int // banded only
	features   int
	classes    int
	// scramble applies a deterministic random relabeling after generation.
	// Banded graphs are generated in band order, which would hand the plain
	// block distribution a perfect partition for free; real similarity
	// graphs (HipMCL Protein) arrive with arbitrary vertex ids, and
	// recovering the structure is exactly the partitioner's job.
	scramble bool
}

var presetSpecs = map[Preset]presetSpec{
	// Reddit: 233k vertices, 115M edges (avg deg ~493), f=602, 41 labels.
	// Scaled: 4k vertices, heavy edge factor for density, irregular R-MAT.
	RedditSim: {kind: "rmat", scaleLog2: 12, edgeFactor: 64, features: 602, classes: 41},
	// Amazon: 14.2M vertices, 231M edges (avg deg ~16), f=300, 24 labels.
	// Scaled: 64k vertices, edge factor 8, irregular R-MAT (sparsest).
	AmazonSim: {kind: "rmat", scaleLog2: 16, edgeFactor: 8, features: 300, classes: 24},
	// Protein: 8.7M vertices, 2.1B edges (avg deg ~242), f=300, 24 labels.
	// Scaled: 32k vertices, banded geometric graph with avg degree ~56.
	// The band halfwidth (32) is small relative to the smallest block size
	// the experiments use (n/256 = 128), mirroring the real Protein graph
	// whose similarity clusters are tiny compared to per-GPU blocks — the
	// regularity that lets partitioners cut it almost perfectly.
	ProteinSim: {kind: "banded", scaleLog2: 15, edgeFactor: 56, halfWidth: 32, features: 300, classes: 24, scramble: true},
	// Papers: 111M vertices, 3.2B edges (avg deg ~29), f=128, 172 labels.
	// Scaled: 128k vertices, edge factor 12.
	PapersSim: {kind: "rmat", scaleLog2: 17, edgeFactor: 12, features: 128, classes: 172},
}

// Load materialises a preset dataset. Deterministic in seed. scaleDiv (≥1)
// divides the preset's vertex scale by 2^log2(scaleDiv) to make quick test
// runs cheap; pass 1 for the full benchmark size.
func Load(p Preset, seed int64, scaleDiv int) (*Dataset, error) {
	spec, ok := presetSpecs[p]
	if !ok {
		return nil, fmt.Errorf("gen: unknown preset %q", p)
	}
	scale := spec.scaleLog2
	for d := scaleDiv; d > 1; d /= 2 {
		scale--
	}
	if scale < 6 {
		scale = 6
	}
	var g *graph.Graph
	switch spec.kind {
	case "rmat":
		g = RMAT(DefaultRMAT(scale, spec.edgeFactor, seed))
	case "banded":
		n := 1 << scale
		hw := spec.halfWidth
		if hw > n/4 {
			hw = n / 4
		}
		g = Banded(n, spec.edgeFactor, hw, seed)
	default:
		return nil, fmt.Errorf("gen: bad preset kind %q", spec.kind)
	}
	if spec.scramble {
		prng := rand.New(rand.NewSource(seed + 2))
		g = g.Permute(prng.Perm(g.NumVertices()))
	}
	rng := rand.New(rand.NewSource(seed + 1))
	n := g.NumVertices()
	labels := RandomLabels(rng, n, spec.classes)
	feats := Features(rng, labels, spec.classes, spec.features, 0.5)
	train, val, test := Splits(rng, n, 0.1, 0.1)
	return &Dataset{
		Name:     string(p),
		G:        g,
		Features: feats,
		Labels:   labels,
		Classes:  spec.classes,
		Train:    train,
		Val:      val,
		Test:     test,
	}, nil
}

// MustLoad is Load that panics on error; for benchmarks and examples where
// a bad preset name is a programming error.
func MustLoad(p Preset, seed int64, scaleDiv int) *Dataset {
	d, err := Load(p, seed, scaleDiv)
	if err != nil {
		panic(err)
	}
	return d
}
