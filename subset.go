package sagnn

import (
	"fmt"
	"sort"
)

// This file is the serving-side face of the paper's sparsity-aware
// communication idea: a prediction request for k target vertices does not
// need a full-batch forward pass — it needs exactly the rows of the L-hop
// in-neighborhood of those targets, the same "fetch only the rows the
// sparsity pattern asks for" discipline the training engines apply to
// remote activation rows. PredictSubset gathers that induced subgraph and
// runs the layers over it, producing probabilities bit-identical to
// full-batch inference.

// PredictSubset returns the predicted class of each requested vertex,
// computing only the receptive field of the request instead of a full-batch
// forward pass. Results are bit-identical to Predict. The vertices must be
// distinct and in range (ErrInvalidVertices otherwise); any order is
// accepted and the result aligns with the request order. A nil slice
// predicts every vertex.
func (m *Model) PredictSubset(ds *Dataset, vertices []int) ([]int, error) {
	probs, count, err := m.probabilitiesSubsetFlat(ds, vertices)
	if err != nil {
		return nil, err
	}
	classes := m.Classes()
	out := make([]int, count)
	for i := range out {
		out[i] = argmaxRow(probs[i*classes : (i+1)*classes])
	}
	return out, nil
}

// ProbabilitiesSubset returns each requested vertex's class-probability row
// (fresh copies the caller owns), gathering only the request's L-hop
// receptive field. Same vertex-set contract as PredictSubset.
func (m *Model) ProbabilitiesSubset(ds *Dataset, vertices []int) ([][]float64, error) {
	probs, count, err := m.probabilitiesSubsetFlat(ds, vertices)
	if err != nil {
		return nil, err
	}
	classes := m.Classes()
	out := make([][]float64, count)
	for i := range out {
		out[i] = probs[i*classes : (i+1)*classes]
	}
	return out, nil
}

// probabilitiesSubsetFlat resolves the nil-means-all convention and returns
// a freshly-allocated flat row-major probability block plus the row count.
func (m *Model) probabilitiesSubsetFlat(ds *Dataset, vertices []int) ([]float64, int, error) {
	if err := m.checkDataset(ds); err != nil {
		return nil, 0, err
	}
	count := len(vertices)
	if vertices == nil {
		count = ds.G.NumVertices()
	}
	probs := make([]float64, count*m.Classes())
	if _, err := m.ProbabilitiesSubsetInto(probs, ds, vertices); err != nil {
		return nil, 0, err
	}
	return probs, count, nil
}

// ProbabilitiesSubsetInto computes the class-probability rows of the given
// distinct vertices into dst (row-major, len(vertices)×Classes values;
// row i holds vertices[i]), gathering only the L-hop receptive field of the
// request and reusing the model's inference workspace — the micro-batching
// server's execution path. It returns the number of rows of Â·X gathered:
// the request's (L−1)-hop neighbourhood, at most NumVertices, the serving
// analogue of the paper's communication-volume metric. A nil slice selects
// every vertex.
func (m *Model) ProbabilitiesSubsetInto(dst []float64, ds *Dataset, vertices []int) (gathered int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkDataset(ds); err != nil {
		return 0, err
	}
	n := ds.G.NumVertices()
	if vertices == nil {
		m.everyVertex(n)
	} else {
		if len(vertices) == 0 {
			return 0, fmt.Errorf("sagnn: %w: empty vertex set", ErrInvalidVertices)
		}
		if err := ValidateVertices(n, vertices); err != nil {
			return 0, err
		}
		//lint:ignore steadyalloc append into the reused m.sorted buffer grows once and is amortized across requests
		m.sorted = append(m.sorted[:0], vertices...)
		sort.Ints(m.sorted)
	}
	classes := m.Classes()
	if len(dst) != len(m.sorted)*classes {
		return 0, fmt.Errorf("sagnn: dst holds %d values, want %d vertices × %d classes", len(dst), len(m.sorted), classes)
	}
	defer recoverToError(&err)
	probs := m.forward(ds)
	// Scatter rows back to the request order (identity when pre-sorted).
	if vertices == nil {
		copy(dst, probs.Data)
	} else {
		for i, v := range vertices {
			r := sort.SearchInts(m.sorted, v)
			copy(dst[i*classes:(i+1)*classes], probs.Row(r))
		}
	}
	return m.eval.GatheredRows(), nil
}
