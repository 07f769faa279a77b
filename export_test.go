package sagnn

import "sagnn/internal/dense"

// InferenceProduct returns the Â·X a model's inference evaluator reads, nil
// before the model's first prediction.
func InferenceProduct(m *Model) *dense.Matrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eval == nil {
		return nil
	}
	return m.eval.AX
}
