package gcn

import "sagnn/internal/dense"

// Accuracies evaluates classification accuracy on each vertex set from one
// forward pass.
func (s *Serial) Accuracies(masks ...[]int) []float64 {
	probs := s.ws.Probabilities(s.Model, &s.op)
	accs := make([]float64, len(masks))
	for i, mask := range masks {
		accs[i] = dense.Accuracy(probs, s.Labels, mask)
	}
	return accs
}

// Dirty reports whether an aborted epoch has left the replicas possibly
// divergent (stepping will refuse until SetModel).
func (st *Stepper) Dirty() bool { return st.dirty }
