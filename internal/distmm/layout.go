// Package distmm implements the paper's distributed SpMM algorithms for
// full-batch GNN training:
//
//   - Oblivious1D  — CAGNET's sparsity-oblivious 1D algorithm: every epoch
//     each process broadcasts its entire block row of H.
//   - SparsityAware1D — Algorithm 1: processes exchange only the H rows
//     named by the nonzero column indices (NnzCols) of the local sparse
//     blocks, via a single all-to-allv.
//   - Oblivious15D — the communication-avoiding 1.5D algorithm with
//     replication factor c (block rows of A and H replicated on c
//     processes) using broadcasts plus a partial-sum all-reduce.
//   - SparsityAware15D — Algorithm 2: 1.5D staging with point-to-point
//     sends of only the needed H rows, plus the all-reduce.
//   - SampledGather — Algorithm 1 again, over each rank's sampled frontier
//     block instead of its block row of Aᵀ: the halo gather of one
//     neighbour-sampled mini-batch (sampled.go).
//
// Every algorithm compiles its choreography into an immutable communication
// Plan at construction (see plan.go) — per-rank instruction streams over
// broadcast/all-to-allv/p2p/all-reduce ops. The sparse operand reaches the
// compiler as a row source split along the layout's column blocks, and one
// schedule builder and one program writer compile Algorithm 1 for both the
// full-batch engine and the gather. One engine type runs every plan. All
// engines therefore perform real data movement through a comm.World, so
// their results are bit-identical to a serial SpMM (tested), while exact
// volumes and modeled α–β times are recorded for the experiment harness —
// and the same schedule predicts both (Plan.Volumes, Plan.Cost) without
// moving data.
package distmm

import (
	"fmt"
	"sort"
)

// Layout is a 1D block-row distribution: block i owns global rows
// [Offsets[i], Offsets[i+1]).
type Layout struct {
	Offsets []int
}

// UniformLayout splits n rows into p nearly equal contiguous blocks.
func UniformLayout(n, p int) Layout {
	offsets := make([]int, p+1)
	for i := 0; i <= p; i++ {
		offsets[i] = i * n / p
	}
	return Layout{Offsets: offsets}
}

// LayoutFromOffsets validates and wraps explicit block boundaries (e.g. the
// variable-size blocks a partitioner produces). Malformed offsets panic:
// construction-time misuse, not a runtime failure.
func LayoutFromOffsets(offsets []int) Layout {
	if len(offsets) < 2 || offsets[0] != 0 {
		panic(fmt.Sprintf("distmm: bad offsets %v", offsets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("distmm: offsets not monotone at %d: %v", i, offsets))
		}
	}
	return Layout{Offsets: append([]int(nil), offsets...)}
}

// Blocks returns the number of blocks.
func (l Layout) Blocks() int { return len(l.Offsets) - 1 }

// N returns the total number of rows.
func (l Layout) N() int { return l.Offsets[len(l.Offsets)-1] }

// Range returns block i's row range [lo, hi).
func (l Layout) Range(i int) (lo, hi int) { return l.Offsets[i], l.Offsets[i+1] }

// Count returns the number of rows in block i.
func (l Layout) Count(i int) int { return l.Offsets[i+1] - l.Offsets[i] }

// Owner returns the block owning global row r; an out-of-range row panics.
func (l Layout) Owner(r int) int {
	if r < 0 || r >= l.N() {
		panic(fmt.Sprintf("distmm: row %d outside [0,%d)", r, l.N()))
	}
	// first offset strictly greater than r, minus one
	return sort.SearchInts(l.Offsets, r+1) - 1
}
