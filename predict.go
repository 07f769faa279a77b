package sagnn

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"sagnn/internal/dense"
	"sagnn/internal/gcn"
)

// This file is the serving-side face of the paper's sparsity-aware
// communication idea: a prediction request for k target vertices does not
// need a full-batch forward pass — it needs exactly the rows of the L-hop
// in-neighborhood of those targets, the same "fetch only the rows the
// sparsity pattern asks for" discipline the training engines apply to
// remote activation rows. Every prediction gathers that receptive field and
// runs the layers over it, producing probabilities bit-identical to
// full-batch inference.

// ErrInvalidVertices tags every vertex-set validation failure on the
// prediction paths — out-of-range ids, duplicates, or empty requests.
// Servers match it with errors.Is to map bad requests to client errors
// (HTTP 400) instead of internal ones.
var ErrInvalidVertices = errors.New("invalid vertices")

// ValidateVertices checks that a prediction request is non-empty, names only
// vertices in [0, n) and never names one twice, returning an
// ErrInvalidVertices-tagged error otherwise. A valid request of up to
// sortedCheckMax vertices is checked allocation-free.
func ValidateVertices(n int, vertices []int) error {
	if len(vertices) == 0 {
		return fmt.Errorf("sagnn: %w: empty vertex set", ErrInvalidVertices)
	}
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
	if v, ok := repeated(vertices); ok {
		return fmt.Errorf("sagnn: %w: duplicate vertex %d", ErrInvalidVertices, v)
	}
	return nil
}

// sortedCheckMax is the largest request whose sorted copy repeated keeps on
// the stack: the serving tier's default request limit.
const sortedCheckMax = 1024

// repeated returns the smallest vertex that vertices name twice, if any, by
// sorting a copy of them.
func repeated(vertices []int) (int, bool) {
	var scratch [sortedCheckMax]int
	sorted := append(scratch[:0], vertices...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i], true
		}
	}
	return 0, false
}

// Model is a trained GCN parameter set, detached from the session that
// produced it. Weights are permutation-invariant, so a model trained on a
// partitioned (permuted) graph predicts directly on the original dataset
// order. Models serialize with MarshalBinary / LoadModel.
//
// A Model is safe for concurrent use: Predict, Probabilities and Accuracy
// serialize on an internal mutex around one lazily-built, reusable inference
// evaluator, the L-hop forward over the dataset's shared Â and Â·X
// (Dataset.NormalizedAdjacency, Dataset.InputProduct). A full-batch
// prediction is the same forward with every vertex as the target set. The
// evaluator is keyed on the dataset's Â — predicting on another dataset, or
// on one whose graph or features were replaced, rebuilds it — so repeated
// predictions allocate only the rows they return.
type Model struct {
	m *gcn.Model

	mu     sync.Mutex
	eval   *gcn.SubsetEval // the inference forward over the last dataset's Â and Â·X
	probs  *dense.Matrix   // probability rows of the sorted request
	sorted []int           // the request in ascending order: every vertex for full batch
}

// Layers returns the number of GCN layers.
func (m *Model) Layers() int { return m.m.Layers() }

// Clone deep-copies the model.
func (m *Model) Clone() *Model { return &Model{m: m.m.Clone()} }

// checkDataset verifies the dataset's feature width matches the model.
func (m *Model) checkDataset(ds *Dataset) error {
	if err := validateDataset(ds); err != nil {
		return err
	}
	if got := m.m.Weights[0].Rows; got != ds.FeatureDim() {
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
		m.eval = gcn.NewSubsetEval(a, ds.Features, m.m, gcn.GCNConv)
		m.eval.AX = ds.InputProduct()
	}
	m.probs = dense.Reshape(m.probs, len(m.sorted), m.Classes())
	m.eval.ProbabilitiesInto(m.probs, m.sorted)
	return m.probs
}

// Accuracy returns the model's accuracy on each vertex set of ds: one
// full-batch forward over every vertex, then the share of each set whose
// predicted class (what Predict returns) is its label. An empty set reads
// 0. Training computes no accuracy; callers that report one ask here.
func (m *Model) Accuracy(ds *Dataset, sets ...[]int) (accs []float64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkDataset(ds); err != nil {
		return nil, err
	}
	defer recoverToError(&err)
	m.everyVertex(ds.G.NumVertices())
	probs := m.forward(ds)
	accs = make([]float64, len(sets))
	for i, set := range sets {
		accs[i] = dense.Accuracy(probs, ds.Labels, set)
	}
	return accs, nil
}

// everyVertex makes the request every vertex of an n-vertex graph, so that
// forward is full-batch inference.
func (m *Model) everyVertex(n int) {
	m.sorted = slices.Grow(m.sorted[:0], n)[:n]
	for i := range m.sorted {
		m.sorted[i] = i
	}
}

// Predict returns the predicted class (the first most probable) of each
// requested vertex on the given dataset; no training state is touched.
// Same vertex-set contract as Probabilities: a nil slice predicts every
// vertex.
func (m *Model) Predict(ds *Dataset, vertices []int) ([]int, error) {
	probs, err := m.Probabilities(ds, vertices)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	for i, row := range probs {
		out[i] = dense.ArgmaxRow(row)
	}
	return out, nil
}

// Probabilities returns each requested vertex's class-probability row
// (fresh copies the caller owns; row i holds vertices[i]), gathering only
// the L-hop receptive field of the request and reusing the model's
// inference workspace. A nil slice selects every vertex; any other request
// must be non-empty, distinct and in range (ErrInvalidVertices otherwise),
// in any order.
func (m *Model) Probabilities(ds *Dataset, vertices []int) (rows [][]float64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkDataset(ds); err != nil {
		return nil, err
	}
	if vertices == nil {
		m.everyVertex(ds.G.NumVertices())
	} else {
		if err := ValidateVertices(ds.G.NumVertices(), vertices); err != nil {
			return nil, err
		}
		m.sorted = append(m.sorted[:0], vertices...)
		slices.Sort(m.sorted)
	}
	defer recoverToError(&err)
	probs := m.forward(ds)
	classes := m.Classes()
	flat := make([]float64, len(m.sorted)*classes)
	rows = make([][]float64, len(m.sorted))
	for i := range rows {
		// Rows come back in request order (identity when pre-sorted).
		r := i
		if vertices != nil {
			r, _ = slices.BinarySearch(m.sorted, vertices[i])
		}
		rows[i] = flat[i*classes : (i+1)*classes : (i+1)*classes]
		copy(rows[i], probs.Row(r))
	}
	return rows, nil
}

// MarshalBinary serialises the model: a leading variant byte, always 0 (the
// GCN layer), then the gcn model record.
func (m *Model) MarshalBinary() ([]byte, error) {
	data, err := m.m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append([]byte{0}, data...), nil
}

// LoadModel parses a model serialised with MarshalBinary. The decoding is
// strict — an accepted artifact re-marshals to the same bytes, so a variant
// byte other than 0 is an error — and the layer chain must compose, so every
// model that loads can run a forward pass.
func LoadModel(data []byte) (*Model, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("sagnn: empty model data")
	}
	if data[0] != 0 {
		return nil, fmt.Errorf("sagnn: bad model variant byte %#x (only the GCN layer, 0, loads)", data[0])
	}
	m := &Model{m: &gcn.Model{}}
	if err := m.m.UnmarshalBinary(data[1:]); err != nil {
		return nil, err
	}
	if err := m.m.CheckChain(); err != nil {
		return nil, err
	}
	return m, nil
}
