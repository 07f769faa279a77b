package machine

import (
	"fmt"
	"sort"
	"sync"
)

// Ledger accumulates modeled per-rank, per-phase seconds during a simulated
// run. Phases correspond to the paper's breakdown categories ("bcast",
// "alltoall", "allreduce", "local"). The epoch time of a bulk-synchronous
// run is the sum over phases of the slowest rank in that phase, because
// every collective is a synchronization point. A ledger is only charged;
// every reading goes through a Snapshot.
type Ledger struct {
	mu     sync.Mutex
	p      int
	phases map[string][]float64
}

// NewLedger creates a ledger for p ranks.
func NewLedger(p int) *Ledger {
	return &Ledger{p: p, phases: make(map[string][]float64)}
}

// Add credits sec modeled seconds to (rank, phase).
func (l *Ledger) Add(rank int, phase string, sec float64) {
	if rank < 0 || rank >= l.p {
		panic(fmt.Sprintf("machine: ledger rank %d of %d", rank, l.p))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	row, ok := l.phases[phase]
	if !ok {
		row = make([]float64, l.p)
		l.phases[phase] = row
	}
	row[rank] += sec
}

// Snapshot is an immutable copy of a ledger's accumulated per-rank,
// per-phase seconds: the one modeled-time table, whether a run charged it
// (a world's ledger) or a plan walk predicted it (distmm.Plan.Cost).
// Subtracting two snapshots isolates the time charged by one run on a
// long-lived world, which lets sessions report per-run figures without
// mutating shared ledger state.
type Snapshot struct {
	p      int
	phases map[string][]float64
}

// Snapshot copies the ledger's current state.
func (l *Ledger) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &Snapshot{p: l.p, phases: make(map[string][]float64, len(l.phases))}
	for ph, row := range l.phases {
		s.phases[ph] = append([]float64(nil), row...)
	}
	return s
}

// Sub returns the entry-wise difference s − earlier: the time charged
// between the two snapshots. Phases absent from earlier count as zero.
func (s *Snapshot) Sub(earlier *Snapshot) *Snapshot {
	if earlier != nil && earlier.p != s.p {
		panic(fmt.Sprintf("machine: snapshot of %d ranks minus %d ranks", s.p, earlier.p))
	}
	d := &Snapshot{p: s.p, phases: make(map[string][]float64, len(s.phases))}
	for ph, row := range s.phases {
		out := append([]float64(nil), row...)
		if earlier != nil {
			if prev, ok := earlier.phases[ph]; ok {
				for i := range out {
					out[i] -= prev[i]
				}
			}
		}
		d.phases[ph] = out
	}
	return d
}

// Add returns the entry-wise sum s + other, with phases unioned. A nil
// receiver acts as zero and returns other unchanged (sessions accumulate
// per-step deltas starting from nil).
func (s *Snapshot) Add(other *Snapshot) *Snapshot {
	if s == nil {
		return other
	}
	if other != nil && other.p != s.p {
		panic(fmt.Sprintf("machine: snapshot of %d ranks plus %d ranks", s.p, other.p))
	}
	d := &Snapshot{p: s.p, phases: make(map[string][]float64, len(s.phases))}
	for ph, row := range s.phases {
		d.phases[ph] = append([]float64(nil), row...)
	}
	if other != nil {
		for ph, row := range other.phases {
			dst, ok := d.phases[ph]
			if !ok {
				dst = make([]float64, s.p)
				d.phases[ph] = dst
			}
			for i, v := range row {
				dst[i] += v
			}
		}
	}
	return d
}

// Scale returns a copy with every entry multiplied by f (e.g. 1/epochs to
// convert an accumulated run into per-epoch figures).
func (s *Snapshot) Scale(f float64) *Snapshot {
	d := &Snapshot{p: s.p, phases: make(map[string][]float64, len(s.phases))}
	for ph, row := range s.phases {
		out := make([]float64, len(row))
		for i, v := range row {
			out[i] = v * f
		}
		d.phases[ph] = out
	}
	return d
}

// Phases returns the snapshot's phase names in sorted order.
func (s *Snapshot) Phases() []string {
	out := make([]string, 0, len(s.phases))
	for k := range s.phases {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PhaseMax returns the slowest rank's seconds in the phase.
func (s *Snapshot) PhaseMax(phase string) float64 {
	maxv := 0.0
	for _, v := range s.phases[phase] {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// Total returns the modeled bulk-synchronous makespan of the snapshot:
// Σ over phases of the per-phase maximum. Phases sum in sorted order, so the
// total is a deterministic float and auto-selection can compare totals
// exactly.
func (s *Snapshot) Total() float64 {
	t := 0.0
	for _, ph := range s.Phases() {
		t += s.PhaseMax(ph)
	}
	return t
}

// Breakdown returns phase → per-phase max seconds.
func (s *Snapshot) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(s.phases))
	for _, ph := range s.Phases() {
		out[ph] = s.PhaseMax(ph)
	}
	return out
}
