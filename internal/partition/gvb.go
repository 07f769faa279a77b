package partition

import (
	"math/rand"

	"sagnn/internal/graph"
)

// GVB emulates Graph-VB (Acer, Selvitopi, Aykanat 2016): a multilevel
// partitioner that, after the edgecut phase, runs a volume-based refinement
// whose objective is lexicographic — first minimize the maximum per-part
// send volume (the bottleneck process), then the total send volume. The
// paper relies on exactly this combination to remove the communication load
// imbalance METIS leaves behind (Table 2, Figure 6).
type GVB struct {
	Seed int64
	// Epsilon is the balance slack for the edgecut phase (default 0.05).
	Epsilon float64
	// VolEpsilon is the looser balance slack allowed during volume
	// refinement; the paper notes GVB trades some computational balance for
	// lower communication (default 0.30).
	VolEpsilon float64
	// Passes is the number of volume refinement sweeps (default 6).
	Passes int
	// DisableVolumePhase turns the volume refinement off, reducing GVB to
	// the edgecut-only pipeline — used by the ablation benchmarks.
	DisableVolumePhase bool
}

// Name implements Partitioner.
func (g GVB) Name() string { return "gvb" }

// Partition implements Partitioner.
func (g GVB) Partition(gr *graph.Graph, k int) *Partition {
	eps := g.Epsilon
	if eps == 0 {
		eps = 0.05
	}
	volEps := g.VolEpsilon
	if volEps == 0 {
		volEps = 0.30
	}
	passes := g.Passes
	if passes == 0 {
		passes = 6
	}
	base := MetisLike{Seed: g.Seed, Epsilon: eps}
	parts, w := base.partitionInternal(gr, k)
	if k > 1 && !g.DisableVolumePhase {
		maxW := int64(float64(w.totalVWgt()) / float64(k) * (1 + volEps))
		rng := rand.New(rand.NewSource(g.Seed + 7))
		refineVolume(w, parts, k, maxW, passes, rng)
	}
	return &Partition{K: k, Parts: parts}
}

// volState tracks send volumes incrementally during volume refinement.
// send[p] counts, in H-row units, the rows part p must ship to other parts
// in one sparsity-aware SpMM: Σ over v∈p of |{q≠p : v has a neighbor in q}|.
type volState struct {
	w     *wgraph
	parts []int
	cnt   partCounts // neighbor-part edge counts per vertex
	partW []int64
	send  []int64
}

func newVolState(w *wgraph, parts []int, k int) *volState {
	cnt, partW := buildPartCounts(w, parts, k)
	s := &volState{w: w, parts: parts, cnt: cnt, partW: partW, send: make([]int64, k)}
	for v := 0; v < w.n; v++ {
		s.send[parts[v]] += cnt.remote(v, parts[v])
	}
	return s
}

// maxSend returns the current bottleneck send volume.
func (s *volState) maxSend() int64 {
	var m int64
	for _, v := range s.send {
		if v > m {
			m = v
		}
	}
	return m
}

// totalSend returns the total send volume.
func (s *volState) totalSend() int64 {
	var t int64
	for _, v := range s.send {
		t += v
	}
	return t
}

// evalMove writes into delta (length k) the per-part send-volume deltas of
// moving v from p to q, without mutating state.
func (s *volState) evalMove(v, p, q int, delta []int64) {
	clear(delta)
	// v's own contribution relocates and changes value: neighbors in p
	// become remote, neighbors in q become local. cnt[v] is unchanged by v's
	// own move, so both counts read the same row.
	delta[p] -= s.cnt.remote(v, p)
	delta[q] += s.cnt.remote(v, q)
	// Neighbor contributions: u in part s loses a neighbor in p and gains
	// one in q.
	for e := s.w.xadj[v]; e < s.w.xadj[v+1]; e++ {
		u := s.w.adj[e]
		su := s.parts[u]
		if u == v {
			continue
		}
		cu := s.cnt.of(u)
		if cu[p]-s.w.ewgt[e] <= 0 && p != su {
			delta[su]--
		}
		if cu[q] == 0 && q != su {
			delta[su]++
		}
	}
}

// apply commits a move previously evaluated.
func (s *volState) apply(v, p, q int, delta []int64) {
	moveVertex(s.w, s.parts, s.cnt, s.partW, v, p, q)
	for r, d := range delta {
		s.send[r] += d
	}
}

// refineVolume runs greedy passes over boundary vertices, accepting moves
// that lexicographically improve (max send volume, total send volume)
// within the balance ceiling. Candidate parts are tried in ascending order.
func refineVolume(w *wgraph, parts []int, k int, maxW int64, passes int, rng *rand.Rand) int {
	s := newVolState(w, parts, k)
	order := make([]int, w.n)
	for i := range order {
		order[i] = i
	}
	delta, bestDelta := make([]int64, k), make([]int64, k)
	totalMoves := 0
	for pass := 0; pass < passes; pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		moves := 0
		curMax := s.maxSend()
		curTotal := s.totalSend()
		for _, v := range order {
			p := parts[v]
			if s.cnt.remote(v, p) == 0 {
				continue // interior vertex: no volume effect
			}
			bestQ := -1
			bestMax, bestTotal := curMax, curTotal
			for q, wq := range s.cnt.of(v) {
				if q == p || wq == 0 {
					continue
				}
				if s.partW[q]+w.vwgt[v] > maxW {
					continue
				}
				if s.partW[p]-w.vwgt[v] <= 0 {
					continue // never empty a part
				}
				s.evalMove(v, p, q, delta)
				newMax, newTotal := projectedObjective(s.send, delta)
				if newMax < bestMax || (newMax == bestMax && newTotal < bestTotal) {
					bestMax, bestTotal, bestQ = newMax, newTotal, q
					delta, bestDelta = bestDelta, delta
				}
			}
			if bestQ < 0 {
				continue
			}
			s.apply(v, p, bestQ, bestDelta)
			curMax, curTotal = bestMax, bestTotal
			moves++
		}
		totalMoves += moves
		if moves == 0 {
			break
		}
	}
	return totalMoves
}

// projectedObjective returns (max, total) send volume after applying delta
// to send, without mutating it.
func projectedObjective(send, delta []int64) (int64, int64) {
	var maxV, total int64
	for p, v := range send {
		v += delta[p]
		if v > maxV {
			maxV = v
		}
		total += v
	}
	return maxV, total
}
