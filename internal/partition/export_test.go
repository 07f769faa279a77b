package partition

import "fmt"

// Sizes returns the number of vertices in each part.
func (p *Partition) Sizes() []int {
	s := make([]int, p.K)
	for _, pt := range p.Parts {
		s[pt]++
	}
	return s
}

// assigned reports whether p gives each of n vertices a part in [0, K).
func assigned(p *Partition, n int) error {
	if len(p.Parts) != n {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Parts), n)
	}
	for v, pt := range p.Parts {
		if pt < 0 || pt >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to part %d of %d", v, pt, p.K)
		}
	}
	return nil
}
