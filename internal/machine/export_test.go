package machine

// RankTotal returns one rank's seconds summed over phases (in sorted order).
func (s *Snapshot) RankTotal(rank int) float64 {
	t := 0.0
	for _, ph := range s.Phases() {
		t += s.phases[ph][rank]
	}
	return t
}
