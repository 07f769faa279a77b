package machine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Ledger accumulates modeled per-rank, per-phase seconds during a simulated
// run. Phases correspond to the paper's breakdown categories ("bcast",
// "alltoall", "allreduce", "local"). The epoch time of a bulk-synchronous
// run is the sum over phases of the slowest rank in that phase, because
// every collective is a synchronization point.
type Ledger struct {
	mu     sync.Mutex
	p      int
	phases map[string][]float64
}

// NewLedger creates a ledger for p ranks.
func NewLedger(p int) *Ledger {
	return &Ledger{p: p, phases: make(map[string][]float64)}
}

// Ranks returns the number of ranks the ledger tracks.
func (l *Ledger) Ranks() int { return l.p }

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

// Phases returns the phase names in sorted order.
func (l *Ledger) Phases() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.phases))
	for k := range l.phases {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PhaseMax returns the slowest rank's accumulated seconds in the phase.
func (l *Ledger) PhaseMax(phase string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	maxv := 0.0
	for _, v := range l.phases[phase] {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// PhaseMean returns the mean over ranks of accumulated seconds in the phase.
func (l *Ledger) PhaseMean(phase string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	row := l.phases[phase]
	if len(row) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range row {
		s += v
	}
	return s / float64(len(row))
}

// RankTotal returns one rank's total across phases.
func (l *Ledger) RankTotal(rank int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := 0.0
	for _, row := range l.phases {
		s += row[rank]
	}
	return s
}

// Total returns the modeled bulk-synchronous makespan: Σ over phases of the
// per-phase maximum.
func (l *Ledger) Total() float64 {
	s := 0.0
	for _, ph := range l.Phases() {
		s += l.PhaseMax(ph)
	}
	return s
}

// Breakdown returns phase → per-phase max seconds.
func (l *Ledger) Breakdown() map[string]float64 {
	out := make(map[string]float64)
	for _, ph := range l.Phases() {
		out[ph] = l.PhaseMax(ph)
	}
	return out
}

// Reset clears all accumulated time.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.phases = make(map[string][]float64)
}

// Snapshot is an immutable copy of a ledger's accumulated per-rank,
// per-phase seconds. Subtracting two snapshots isolates the time charged by
// one run on a long-lived world, which lets sessions report per-run figures
// without mutating shared ledger state.
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
// Σ over phases of the per-phase maximum (same convention as Ledger.Total).
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

// String renders the breakdown for logs.
func (l *Ledger) String() string {
	var b strings.Builder
	for _, ph := range l.Phases() {
		fmt.Fprintf(&b, "%-10s %.6fs\n", ph, l.PhaseMax(ph))
	}
	fmt.Fprintf(&b, "%-10s %.6fs", "total", l.Total())
	return b.String()
}
