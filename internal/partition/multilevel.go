package partition

import (
	"math/rand"
	"slices"

	"sagnn/internal/graph"
)

// wgraph is the weighted working graph of the multilevel pipeline: edge
// weights accumulate merged multi-edges during coarsening, vertex weights
// accumulate nonzeros so the balance constraint tracks SpMM work.
type wgraph struct {
	n    int
	xadj []int   // len n+1
	adj  []int   // neighbor ids
	ewgt []int64 // edge weights, parallel to adj
	vwgt []int64 // vertex weights, len n
}

func (w *wgraph) totalVWgt() int64 {
	var t int64
	for _, v := range w.vwgt {
		t += v
	}
	return t
}

// fromGraph builds the finest-level working graph. Vertex weight is
// degree+1, a proxy for the row nonzero count (including the self loop the
// GCN normalization adds), i.e. SpMM work per vertex. The structure aliases
// g's: no stage of the pipeline writes a working graph's structure.
func fromGraph(g *graph.Graph) *wgraph {
	a := g.Adj
	w := &wgraph{
		n:    a.NumRows,
		xadj: a.RowPtr,
		adj:  a.ColIdx,
		ewgt: make([]int64, a.NNZ()),
		vwgt: make([]int64, a.NumRows),
	}
	for i := range w.ewgt {
		w.ewgt[i] = 1
	}
	for v := 0; v < w.n; v++ {
		w.vwgt[v] = int64(a.RowNNZ(v)) + 1
	}
	return w
}

// coarsen performs one heavy-edge-matching contraction. It returns the
// coarse graph and cmap (fine vertex → coarse vertex).
func coarsen(w *wgraph, rng *rand.Rand) (*wgraph, []int) {
	match := make([]int, w.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(w.n)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best, bestW := -1, int64(-1)
		for p := w.xadj[v]; p < w.xadj[v+1]; p++ {
			u := w.adj[p]
			if u != v && match[u] < 0 && w.ewgt[p] > bestW {
				best, bestW = u, w.ewgt[p]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	// A coarse vertex is a matched pair (or a lone vertex); matching is
	// symmetric, so its first member is the v with match[v] ≥ v. Coarse ids
	// follow first members in fine-vertex order.
	cmap := make([]int, w.n)
	nc := 0
	for v, m := range match {
		if m >= v {
			cmap[v], cmap[m] = nc, nc
			nc++
		}
	}
	// Build the coarse rows in id order. acc holds the row's weight to each
	// coarse neighbour; edge weights are positive, so zero marks one the row
	// has not reached yet.
	cw := &wgraph{n: nc, xadj: make([]int, nc+1), vwgt: make([]int64, nc),
		adj: make([]int, 0, len(w.adj)), ewgt: make([]int64, 0, len(w.adj))}
	acc := make([]int64, nc)
	var touched []int
	addRow := func(v, c int) {
		cw.vwgt[c] += w.vwgt[v]
		for p := w.xadj[v]; p < w.xadj[v+1]; p++ {
			if cu := cmap[w.adj[p]]; cu != c {
				if acc[cu] == 0 {
					touched = append(touched, cu)
				}
				acc[cu] += w.ewgt[p]
			}
		}
	}
	for v := 0; v < w.n; v++ {
		m, c := match[v], cmap[v]
		if m < v {
			continue // built with its first member m
		}
		touched = touched[:0]
		addRow(v, c)
		if m != v {
			addRow(m, c)
		}
		slices.Sort(touched)
		for _, cu := range touched {
			cw.adj, cw.ewgt = append(cw.adj, cu), append(cw.ewgt, acc[cu])
			acc[cu] = 0
		}
		cw.xadj[c+1] = len(cw.adj)
	}
	return cw, cmap
}

// growInitial produces a k-way partition of the coarsest graph by greedy
// BFS graph growing: each part grows from a seed until it reaches its
// weight target, which keeps parts connected (crucial for banded/regular
// graphs, where connected parts mean near-zero cut).
func growInitial(w *wgraph, k int, rng *rand.Rand) []int {
	parts := make([]int, w.n)
	for i := range parts {
		parts[i] = -1
	}
	totalW := w.totalVWgt()
	target := totalW / int64(k)
	assigned := 0
	for pt := 0; pt < k-1; pt++ {
		// seed: first unassigned vertex from a random start
		seed := -1
		start := rng.Intn(w.n)
		for off := 0; off < w.n; off++ {
			v := (start + off) % w.n
			if parts[v] < 0 {
				seed = v
				break
			}
		}
		if seed < 0 {
			break
		}
		var partW int64
		queue := []int{seed}
		parts[seed] = pt
		assigned++
		partW += w.vwgt[seed]
		for len(queue) > 0 && partW < target {
			v := queue[0]
			queue = queue[1:]
			for p := w.xadj[v]; p < w.xadj[v+1]; p++ {
				u := w.adj[p]
				if parts[u] < 0 {
					parts[u] = pt
					assigned++
					partW += w.vwgt[u]
					queue = append(queue, u)
					if partW >= target {
						break
					}
				}
			}
		}
		// If BFS exhausted a component before reaching target, restart from
		// another unassigned seed for the same part.
		for partW < target {
			next := -1
			for v := 0; v < w.n; v++ {
				if parts[v] < 0 {
					next = v
					break
				}
			}
			if next < 0 {
				break
			}
			parts[next] = pt
			assigned++
			partW += w.vwgt[next]
			queue = append(queue[:0], next)
			for len(queue) > 0 && partW < target {
				v := queue[0]
				queue = queue[1:]
				for p := w.xadj[v]; p < w.xadj[v+1]; p++ {
					u := w.adj[p]
					if parts[u] < 0 {
						parts[u] = pt
						assigned++
						partW += w.vwgt[u]
						queue = append(queue, u)
						if partW >= target {
							break
						}
					}
				}
			}
		}
	}
	for v := 0; v < w.n; v++ {
		if parts[v] < 0 {
			parts[v] = k - 1
		}
	}
	return parts
}

// partCounts holds every vertex's summed edge weight into each of the k
// parts, as one flat n·k array, and how many of those k sums are nonzero.
type partCounts struct {
	k   int
	cnt []int64 // cnt[v*k+q]: v's edge weight into part q
	nz  []int   // nz[v]: the parts q with cnt[v*k+q] ≠ 0
}

// of returns v's k counts.
func (pc partCounts) of(v int) []int64 { return pc.cnt[v*pc.k : (v+1)*pc.k] }

// add adds x to v's count for part q.
func (pc partCounts) add(v, q int, x int64) {
	c := &pc.cnt[v*pc.k+q]
	if *c == 0 {
		pc.nz[v]++
	}
	if *c += x; *c == 0 {
		pc.nz[v]--
	}
}

// remote returns how many parts other than p v has edge weight into: the
// parts that need v's H row while v lives in p.
func (pc partCounts) remote(v, p int) int64 {
	r := int64(pc.nz[v])
	if pc.cnt[v*pc.k+p] != 0 {
		r--
	}
	return r
}

// buildPartCounts returns every vertex's edge weight into each part, plus
// the per-part vertex-weight totals.
func buildPartCounts(w *wgraph, parts []int, k int) (partCounts, []int64) {
	pc := partCounts{k: k, cnt: make([]int64, w.n*k), nz: make([]int, w.n)}
	partW := make([]int64, k)
	for v := 0; v < w.n; v++ {
		partW[parts[v]] += w.vwgt[v]
		for p := w.xadj[v]; p < w.xadj[v+1]; p++ {
			pc.add(v, parts[w.adj[p]], w.ewgt[p])
		}
	}
	return pc, partW
}

// refineEdgeCut runs greedy FM-style boundary passes: move a vertex to the
// adjacent part with the largest positive edgecut gain (the lowest such
// part on a tie), subject to the balance ceiling maxW. Returns the number of
// moves made.
func refineEdgeCut(w *wgraph, parts []int, k int, maxW int64, passes int, rng *rand.Rand) int {
	pc, partW := buildPartCounts(w, parts, k)
	totalMoves := 0
	order := make([]int, w.n)
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < passes; pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		moves := 0
		for _, v := range order {
			p := parts[v]
			if pc.remote(v, p) == 0 {
				continue // interior vertex: every gain is ≤ 0
			}
			cnt := pc.of(v)
			bestQ, bestGain := -1, int64(0)
			for q, wq := range cnt {
				if q == p || partW[q]+w.vwgt[v] > maxW {
					continue
				}
				if gain := wq - cnt[p]; gain > bestGain {
					bestGain, bestQ = gain, q
				}
			}
			if bestQ < 0 {
				continue
			}
			moveVertex(w, parts, pc, partW, v, p, bestQ)
			moves++
		}
		totalMoves += moves
		if moves == 0 {
			break
		}
	}
	return totalMoves
}

// moveVertex reassigns v from p to q, updating neighbor part counts and
// part weights incrementally.
func moveVertex(w *wgraph, parts []int, pc partCounts, partW []int64, v, p, q int) {
	parts[v] = q
	partW[p] -= w.vwgt[v]
	partW[q] += w.vwgt[v]
	for e := w.xadj[v]; e < w.xadj[v+1]; e++ {
		pc.add(w.adj[e], p, -w.ewgt[e])
		pc.add(w.adj[e], q, w.ewgt[e])
	}
}

// MetisLike is a multilevel k-way partitioner minimizing total edgecut
// under a vertex-weight balance constraint — the same objective family as
// METIS, and like METIS it ignores communication load balance.
type MetisLike struct {
	Seed int64
}

// MetisLike's balance slack — part weight ≤ (1+metisEpsilon)·avg — and its
// refinement sweeps per level.
const (
	metisEpsilon = 0.05
	metisPasses  = 4
)

// Name implements Partitioner.
func (m MetisLike) Name() string { return "metis" }

// Partition implements Partitioner.
func (m MetisLike) Partition(g *graph.Graph, k int) *Partition {
	parts, _ := m.partitionInternal(g, k)
	return &Partition{K: k, Parts: parts}
}

// partitionInternal runs the multilevel pipeline and returns the vertex
// assignment on the original graph, with the finest working graph (nil when
// k ≤ 1) for GVB's volume phase to reuse.
func (m MetisLike) partitionInternal(g *graph.Graph, k int) ([]int, *wgraph) {
	rng := rand.New(rand.NewSource(m.Seed + 1))
	if k <= 1 {
		return make([]int, g.NumVertices()), nil
	}

	// Coarsening phase.
	levels := []*wgraph{fromGraph(g)}
	var cmaps [][]int
	coarsenTo := 40 * k
	if coarsenTo < 512 {
		coarsenTo = 512
	}
	for levels[len(levels)-1].n > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng)
		if float64(coarse.n) > 0.95*float64(cur.n) {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		levels = append(levels, coarse)
		cmaps = append(cmaps, cmap)
	}

	// Initial partition on the coarsest level.
	coarsest := levels[len(levels)-1]
	parts := growInitial(coarsest, k, rng)
	totalW := coarsest.totalVWgt()
	maxW := int64(float64(totalW) / float64(k) * (1 + metisEpsilon))
	refineEdgeCut(coarsest, parts, k, maxW, metisPasses, rng)

	// Uncoarsen with refinement at every level.
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		fine := levels[lvl]
		cmap := cmaps[lvl]
		fineParts := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			fineParts[v] = parts[cmap[v]]
		}
		parts = fineParts
		maxW = int64(float64(fine.totalVWgt()) / float64(k) * (1 + metisEpsilon))
		refineEdgeCut(fine, parts, k, maxW, metisPasses, rng)
	}
	return parts, levels[0]
}
