package partition

import (
	"fmt"

	"sagnn/internal/graph"
)

// VolStats summarises the communication a partition induces for one
// sparsity-aware SpMM, in units of H rows (multiply by f·4 bytes for wire
// volume). SendRows[p] is the number of (row, destination-part) pairs part
// p ships; a row needed by three remote parts counts three times, matching
// the paper's send-volume metric.
type VolStats struct {
	SendRows []int64
	RecvRows []int64
	// TotalRows is Σ SendRows.
	TotalRows int64
	// MaxSendRows is the bottleneck part's send volume.
	MaxSendRows int64
	// Imbalance is max/avg − 1 of send volume (Table 2's "load imbalance %"
	// when multiplied by 100).
	Imbalance float64
}

// EdgeCut returns the number of undirected edges crossing parts (each
// symmetric pair counted once).
func EdgeCut(g *graph.Graph, p *Partition) int64 {
	var cut int64
	a := g.Adj
	for v := 0; v < a.NumRows; v++ {
		pv := p.Parts[v]
		for e := a.RowPtr[v]; e < a.RowPtr[v+1]; e++ {
			if p.Parts[a.ColIdx[e]] != pv {
				cut++
			}
		}
	}
	return cut / 2
}

// Volumes computes the send/receive row volumes of a sparsity-aware SpMM
// under partition p.
func Volumes(g *graph.Graph, p *Partition) VolStats {
	a := g.Adj
	send := make([]int64, p.K)
	recv := make([]int64, p.K)
	seen := make([]int, p.K) // seen[q] == v+1: v already counted toward part q
	for v := 0; v < a.NumRows; v++ {
		pv := p.Parts[v]
		for e := a.RowPtr[v]; e < a.RowPtr[v+1]; e++ {
			q := p.Parts[a.ColIdx[e]]
			if q != pv && seen[q] != v+1 {
				seen[q] = v + 1
				send[pv]++
				recv[q]++
			}
		}
	}
	st := VolStats{SendRows: send, RecvRows: recv}
	for _, s := range send {
		st.TotalRows += s
		if s > st.MaxSendRows {
			st.MaxSendRows = s
		}
	}
	if st.TotalRows > 0 {
		avg := float64(st.TotalRows) / float64(p.K)
		st.Imbalance = float64(st.MaxSendRows)/avg - 1
	}
	return st
}

// NNZBalance returns max/avg − 1 of per-part nonzero counts (+1 per vertex
// for the self loop), the computational balance measure.
func NNZBalance(g *graph.Graph, p *Partition) float64 {
	w := make([]int64, p.K)
	a := g.Adj
	for v := 0; v < a.NumRows; v++ {
		w[p.Parts[v]] += int64(a.RowNNZ(v)) + 1
	}
	var total, maxW int64
	for _, x := range w {
		total += x
		if x > maxW {
			maxW = x
		}
	}
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(p.K)
	return float64(maxW)/avg - 1
}

// Quality bundles the headline metrics for reports.
type Quality struct {
	Partitioner string
	K           int
	EdgeCut     int64
	TotalRows   int64
	MaxSendRows int64
	Imbalance   float64
	NNZBalance  float64
}

// Evaluate computes all quality metrics of p for graph g.
func Evaluate(name string, g *graph.Graph, p *Partition) Quality {
	vs := Volumes(g, p)
	return Quality{
		Partitioner: name,
		K:           p.K,
		EdgeCut:     EdgeCut(g, p),
		TotalRows:   vs.TotalRows,
		MaxSendRows: vs.MaxSendRows,
		Imbalance:   vs.Imbalance,
		NNZBalance:  NNZBalance(g, p),
	}
}

// String renders a one-line summary.
func (q Quality) String() string {
	return fmt.Sprintf("%-7s k=%-4d cut=%-9d totalRows=%-9d maxSend=%-8d imbalance=%5.1f%% nnzBal=%5.1f%%",
		q.Partitioner, q.K, q.EdgeCut, q.TotalRows, q.MaxSendRows, q.Imbalance*100, q.NNZBalance*100)
}
