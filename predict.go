package sagnn

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"sagnn/internal/dense"
	"sagnn/internal/gcn"
)

// ErrInvalidVertices tags every vertex-set validation failure on the
// prediction paths — out-of-range ids, duplicates where a set is required,
// or empty requests. Servers match it with errors.Is to map bad requests to
// client errors (HTTP 400) instead of internal ones.
var ErrInvalidVertices = errors.New("invalid vertices")

// ValidateVertices checks that a prediction request names only vertices in
// [0, n) and never names one twice, returning an ErrInvalidVertices-tagged
// error otherwise. Small requests are checked allocation-free.
func ValidateVertices(n int, vertices []int) error {
	for _, v := range vertices {
		if v < 0 || v >= n {
			return fmt.Errorf("sagnn: %w: vertex %d outside [0,%d)", ErrInvalidVertices, v, n)
		}
	}
	if len(vertices) <= 32 {
		for i, v := range vertices {
			for _, w := range vertices[:i] {
				if v == w {
					return fmt.Errorf("sagnn: %w: duplicate vertex %d", ErrInvalidVertices, v)
				}
			}
		}
		return nil
	}
	seen := make(map[int]struct{}, len(vertices))
	for _, v := range vertices {
		if _, ok := seen[v]; ok {
			return fmt.Errorf("sagnn: %w: duplicate vertex %d", ErrInvalidVertices, v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// Model is a trained GCN parameter set, detached from the session that
// produced it. Weights are permutation-invariant, so a model trained on a
// partitioned (permuted) graph predicts directly on the original dataset
// order. Models serialize with MarshalBinary / LoadModel.
//
// A Model is safe for concurrent use: every predict path serializes on an
// internal mutex around one lazily-built, reusable inference evaluator, the
// L-hop forward over the dataset's shared Â and Â·X (Dataset.
// NormalizedAdjacency, Dataset.InputProduct). A full-batch prediction is the
// same forward with every vertex as the target set. The evaluator is keyed
// on the dataset's Â — predicting on another dataset, or on one whose graph
// or features were replaced, rebuilds it — so the steady-state serving hot
// path allocates nothing.
type Model struct {
	m    *gcn.Model
	sage bool

	mu     sync.Mutex
	eval   *gcn.SubsetEval // the inference forward over the last dataset's Â and Â·X
	probs  *dense.Matrix   // probability rows of the sorted request
	sorted []int           // the request in ascending order: every vertex for full batch
}

// Layers returns the number of GCN layers.
func (m *Model) Layers() int { return m.m.Layers() }

// SAGE reports whether the model uses the GraphSAGE-style concat layer.
func (m *Model) SAGE() bool { return m.sage }

// Clone deep-copies the model.
func (m *Model) Clone() *Model { return &Model{m: m.m.Clone(), sage: m.sage} }

// variant returns the gcn layer variant the weights are shaped for.
func (m *Model) variant() gcn.Variant {
	if m.sage {
		return gcn.SAGEConv
	}
	return gcn.GCNConv
}

// checkDataset verifies the dataset's feature width matches the model.
func (m *Model) checkDataset(ds *Dataset) error {
	if err := validateDataset(ds); err != nil {
		return err
	}
	want := m.variant().InputRows(ds.FeatureDim())
	if got := m.m.Weights[0].Rows; got != want {
		return fmt.Errorf("sagnn: model expects %d input rows, dataset %q has feature width %d", got, ds.Name, ds.FeatureDim())
	}
	return nil
}

// CompatibleWith reports whether the model can serve the dataset (feature
// width matches the first layer). Servers call it before hot-swapping a
// freshly-loaded checkpoint into the serving path.
func (m *Model) CompatibleWith(ds *Dataset) error { return m.checkDataset(ds) }

// Classes returns the model's output width (number of classes scored).
func (m *Model) Classes() int { return m.m.Weights[m.m.Layers()-1].Cols }

// forward runs the inference evaluator over the vertices in m.sorted on ds
// and returns their probability rows, in m.sorted's order. Callers hold m.mu
// and have checked ds.
func (m *Model) forward(ds *Dataset) *dense.Matrix {
	if a := ds.NormalizedAdjacency(); m.eval == nil || m.eval.A != a {
		m.eval = gcn.NewSubsetEval(a, ds.Features, m.m, m.variant())
		m.eval.AX = ds.InputProduct()
	}
	m.probs = dense.Reshape(m.probs, len(m.sorted), m.Classes())
	m.eval.ProbabilitiesInto(m.probs, m.sorted)
	return m.probs
}

// accuracies is every run's held-out evaluation: one full-batch forward over
// ds, then the accuracy on each vertex set. ds is checked by the caller.
func (m *Model) accuracies(ds *Dataset, sets ...[]int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.everyVertex(ds.G.NumVertices())
	probs := m.forward(ds)
	accs := make([]float64, len(sets))
	for i, set := range sets {
		accs[i] = dense.Accuracy(probs, ds.Labels, set)
	}
	return accs
}

// everyVertex makes the request every vertex of an n-vertex graph, so that
// forward is full-batch inference.
func (m *Model) everyVertex(n int) {
	m.sorted = slices.Grow(m.sorted[:0], n)[:n]
	for i := range m.sorted {
		m.sorted[i] = i
	}
}

// Predict returns the predicted class of each requested vertex on the
// given dataset (full-batch inference; no training state is touched). A nil
// vertices slice predicts every vertex.
func (m *Model) Predict(ds *Dataset, vertices []int) ([]int, error) {
	if err := m.checkDataset(ds); err != nil {
		return nil, err
	}
	count := len(vertices)
	if vertices == nil {
		count = ds.G.NumVertices()
	}
	out := make([]int, count)
	if err := m.PredictInto(out, ds, vertices); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto is Predict writing the classes into a caller-supplied slice
// (len(vertices), or NumVertices for a nil slice) and reusing the model's
// inference workspace: after the first call on a dataset, the steady-state
// path is allocation-free.
func (m *Model) PredictInto(dst []int, ds *Dataset, vertices []int) (err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkDataset(ds); err != nil {
		return err
	}
	defer recoverToError(&err)
	m.everyVertex(ds.G.NumVertices())
	return argmaxRowsInto(dst, m.forward(ds), vertices)
}

// MarshalBinary serialises the model.
func (m *Model) MarshalBinary() ([]byte, error) {
	data, err := m.m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	flag := byte(0)
	if m.sage {
		flag = 1
	}
	return append([]byte{flag}, data...), nil
}

// LoadModel parses a model serialised with MarshalBinary. The decoding is
// strict — an accepted artifact re-marshals to the same bytes — and the
// layer chain must compose under the artifact's variant, so every model that
// loads can run a forward pass.
func LoadModel(data []byte) (*Model, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("sagnn: empty model data")
	}
	if data[0] > 1 {
		return nil, fmt.Errorf("sagnn: bad model variant flag %#x", data[0])
	}
	m := &Model{m: &gcn.Model{}, sage: data[0] == 1}
	if err := m.m.UnmarshalBinary(data[1:]); err != nil {
		return nil, err
	}
	if err := m.m.CheckChain(m.variant()); err != nil {
		return nil, err
	}
	return m, nil
}

// expandVertices resolves the shared "nil means every vertex" convention
// and bounds-checks explicit requests against n vertices.
func expandVertices(n int, vertices []int) ([]int, error) {
	if vertices == nil {
		vertices = make([]int, n)
		for i := range vertices {
			vertices[i] = i
		}
		return vertices, nil
	}
	for _, v := range vertices {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("sagnn: %w: vertex %d outside [0,%d)", ErrInvalidVertices, v, n)
		}
	}
	return vertices, nil
}

// argmaxRow returns the index of the largest element.
func argmaxRow(row []float64) int {
	best, bestv := 0, row[0]
	for j, p := range row {
		if p > bestv {
			best, bestv = j, p
		}
	}
	return best
}

// argmaxRowsInto maps each requested vertex to its argmax class, writing
// into dst without allocating. nil vertices selects every row of probs.
func argmaxRowsInto(dst []int, probs *dense.Matrix, vertices []int) error {
	if vertices == nil {
		if len(dst) != probs.Rows {
			return fmt.Errorf("sagnn: dst len %d for %d vertices", len(dst), probs.Rows)
		}
		for i := 0; i < probs.Rows; i++ {
			dst[i] = argmaxRow(probs.Row(i))
		}
		return nil
	}
	if len(dst) != len(vertices) {
		return fmt.Errorf("sagnn: dst len %d for %d vertices", len(dst), len(vertices))
	}
	for i, v := range vertices {
		if v < 0 || v >= probs.Rows {
			return fmt.Errorf("sagnn: %w: vertex %d outside [0,%d)", ErrInvalidVertices, v, probs.Rows)
		}
		dst[i] = argmaxRow(probs.Row(v))
	}
	return nil
}

// Predictor serves class predictions from a frozen model without
// re-entering training. The first query runs one full-batch forward pass
// over its dataset and caches the class probabilities; every query after
// that is a table lookup, so a Predictor can absorb heavy read traffic.
// Safe for concurrent use.
type Predictor struct {
	model *Model
	ds    *Dataset

	mu    sync.Mutex
	probs *dense.Matrix
}

// NewPredictor builds a serving handle for a model over a dataset.
func NewPredictor(m *Model, ds *Dataset) (*Predictor, error) {
	if m == nil {
		return nil, fmt.Errorf("sagnn: nil model")
	}
	if err := m.checkDataset(ds); err != nil {
		return nil, err
	}
	return &Predictor{model: m.Clone(), ds: ds}, nil
}

// Model returns a copy of the served model.
func (p *Predictor) Model() *Model { return p.model.Clone() }

// ensureProbs computes and caches the full-batch probabilities once.
func (p *Predictor) ensureProbs() (*dense.Matrix, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.probs == nil {
		probs := dense.New(p.ds.G.NumVertices(), p.model.Classes())
		if _, err := p.model.ProbabilitiesSubsetInto(probs.Data, p.ds, nil); err != nil {
			return nil, err
		}
		p.probs = probs
	}
	return p.probs, nil
}

// Predict returns the predicted class of each requested vertex. A nil
// slice predicts every vertex.
func (p *Predictor) Predict(vertices []int) ([]int, error) {
	out := make([]int, len(vertices))
	if vertices == nil {
		out = make([]int, p.ds.G.NumVertices())
	}
	if err := p.PredictInto(out, vertices); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto is Predict writing into a caller-supplied slice
// (len(vertices), or NumVertices for a nil slice). After the first query
// has populated the probability table, the call is a pure lookup and
// allocates nothing — the serving hot path.
func (p *Predictor) PredictInto(dst []int, vertices []int) error {
	probs, err := p.ensureProbs()
	if err != nil {
		return err
	}
	return argmaxRowsInto(dst, probs, vertices)
}

// Probabilities returns each requested vertex's class-probability row
// (fresh copies the caller owns). A nil slice selects every vertex.
func (p *Predictor) Probabilities(vertices []int) ([][]float64, error) {
	probs, err := p.ensureProbs()
	if err != nil {
		return nil, err
	}
	vertices, err = expandVertices(probs.Rows, vertices)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(vertices))
	for i, v := range vertices {
		out[i] = append([]float64(nil), probs.Row(v)...)
	}
	return out, nil
}

// Accuracy evaluates prediction accuracy on a vertex set against the
// dataset's labels (e.g. ds.Test). A nil slice evaluates every vertex.
func (p *Predictor) Accuracy(vertices []int) (float64, error) {
	vertices, err := expandVertices(p.ds.G.NumVertices(), vertices)
	if err != nil {
		return 0, err
	}
	if len(vertices) == 0 {
		return 0, fmt.Errorf("sagnn: empty vertex set")
	}
	preds, err := p.Predict(vertices)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, v := range vertices {
		if preds[i] == p.ds.Labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}
