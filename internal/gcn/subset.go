package gcn

import (
	"fmt"
	"sort"

	"sagnn/internal/dense"
	"sagnn/internal/sparse"
)

// SubsetEval computes class probabilities for a set of target vertices by
// running Forward over only the rows their receptive field needs — the
// serving-side twin of the paper's sparsity-aware communication: instead of
// "send only the rows NnzCols says a remote rank needs", it is "compute only
// the rows the L-hop in-neighborhood of the request needs".
//
// For targets front_L, layer l's outputs at front_l read Â rows front_l,
// whose distinct columns are front_{l−1}: an L-deep chain of frontiers. The
// evaluator is the forward operand over that chain. Layer 1's aggregate Â·X
// never depends on the weights, so its rows front_1 are gathered from one
// product; each layer above multiplies the induced submatrix
// Â[front_l, front_{l−1}] (monotone relabeling), or Â itself once the
// frontier is every vertex. Every kernel in this package accumulates
// strictly per output row in CSR column order, so the subset rows are
// bit-identical to the same rows of a full-batch forward pass.
//
// A SubsetEval reuses grow-only workspaces across calls and is NOT safe for
// concurrent use; callers serialize (the public API wraps it in a mutex).
type SubsetEval struct {
	A *sparse.CSR // full GCN-normalized adjacency (global degrees)
	X *dense.Matrix
	// AX is Â·X. Callers serving several evaluators over one graph set it to
	// their shared product before the first call; left nil, the first call
	// computes it.
	AX      *dense.Matrix
	Model   *Model
	Variant Variant

	ws        Workspace
	mark      []bool  // frontier-membership scratch, len n
	colPos    []int   // Submatrix relabeling scratch, len n, kept at -1
	frontiers [][]int // frontiers[l] = sorted vertices layer l outputs, l = 1..L
	selfPos   []int   // SAGE: positions of front_l within front_{l-1}
	sub       *sparse.CSR
	agg, h0   *dense.Matrix // Â·X and X at front_1
	self      *dense.Matrix // SAGE: H^{l-1} at front_l
}

// NewSubsetEval validates shapes and builds the reusable evaluator.
func NewSubsetEval(a *sparse.CSR, x *dense.Matrix, model *Model, v Variant) *SubsetEval {
	if a.NumRows != a.NumCols || a.NumRows != x.Rows {
		panic(fmt.Sprintf("gcn: A %dx%d vs X %d rows", a.NumRows, a.NumCols, x.Rows))
	}
	if want := v.InputRows(x.Cols); model.Weights[0].Rows != want {
		panic(fmt.Sprintf("gcn: W1 expects %d input rows, variant wants %d", model.Weights[0].Rows, want))
	}
	e := &SubsetEval{
		A: a, X: x, Model: model, Variant: v,
		mark:      make([]bool, a.NumRows),
		colPos:    make([]int, a.NumRows),
		frontiers: make([][]int, model.Layers()+1),
		sub:       &sparse.CSR{},
	}
	for i := range e.colPos {
		e.colPos[i] = -1
	}
	return e
}

// Classes returns the model's output width.
func (e *SubsetEval) Classes() int { return e.Model.Weights[e.Model.Layers()-1].Cols }

// GatheredRows reports how many rows of Â·X the last ProbabilitiesInto call
// gathered, |front_1|: the (L−1)-hop neighbourhood of the request, the
// serving analogue of the paper's communication-volume metric.
func (e *SubsetEval) GatheredRows() int { return len(e.frontiers[1]) }

// ProbabilitiesInto writes the class-probability rows of the given targets
// into dst (len(targets) × Classes). targets must be strictly increasing
// and within [0, NumVertices); dst row k corresponds to targets[k]. Rows
// are bit-identical to the same rows of a full-batch forward pass.
func (e *SubsetEval) ProbabilitiesInto(dst *dense.Matrix, targets []int) {
	L := e.Model.Layers()
	n := e.A.NumRows
	for i, v := range targets {
		if v < 0 || v >= n || (i > 0 && targets[i-1] >= v) {
			panic(fmt.Sprintf("gcn: targets not strictly increasing in [0,%d) at %d", n, v))
		}
	}
	if dst.Rows != len(targets) || dst.Cols != e.Classes() {
		panic(fmt.Sprintf("gcn: subset dst %dx%d, want %dx%d", dst.Rows, dst.Cols, len(targets), e.Classes()))
	}
	// Frontier chain: front_L = targets; front_{l-1} = distinct columns of
	// Â rows front_l. Â carries self loops, so front_l ⊆ front_{l-1}.
	//lint:ignore steadyalloc append into the reused frontier buffer grows once and is amortized across calls
	e.frontiers[L] = append(e.frontiers[L][:0], targets...)
	for l := L; l > 1; l-- {
		e.frontiers[l-1] = e.expand(e.frontiers[l], e.frontiers[l-1])
	}
	dst.CopyFrom(e.ws.Probabilities(e.Model, e.Variant, e))
}

// full reports whether layer l outputs every vertex; the layers below it
// then do too, since Â's self loops keep front_l ⊆ front_{l−1}.
func (e *SubsetEval) full(l int) bool { return len(e.frontiers[l]) == e.A.NumRows }

// First gathers rows front_1 of Â·X, and of X for SAGEConv's self half.
func (e *SubsetEval) First() (agg, h0 *dense.Matrix) {
	if e.AX == nil {
		e.AX = e.A.SpMM(e.X)
	}
	if e.full(1) {
		return e.AX, e.X
	}
	front := e.frontiers[1]
	e.agg = dense.Reshape(e.agg, len(front), e.AX.Cols)
	e.AX.GatherRowsInto(e.agg.Data, front)
	if e.Variant == SAGEConv {
		e.h0 = dense.Reshape(e.h0, len(front), e.X.Cols)
		e.X.GatherRowsInto(e.h0.Data, front)
	}
	return e.agg, e.h0
}

// Rows returns |front_l|.
func (e *SubsetEval) Rows(l int) int { return len(e.frontiers[l]) }

// Aggregate multiplies Â[front_l, front_{l−1}] by h.
func (e *SubsetEval) Aggregate(l int, dst, h *dense.Matrix) {
	a := e.A
	if !e.full(l) {
		a = e.sub
		e.A.SubmatrixInto(a, e.frontiers[l], e.frontiers[l-1], e.colPos)
	}
	a.SpMMInto(dst, h)
}

// Self gathers the rows of h = H^{l−1} at front_l.
func (e *SubsetEval) Self(l int, h *dense.Matrix) *dense.Matrix {
	if e.full(l) {
		return h
	}
	e.selfPos = positionsOf(e.frontiers[l], e.frontiers[l-1], e.selfPos)
	e.self = dense.Reshape(e.self, len(e.selfPos), h.Cols)
	h.GatherRowsInto(e.self.Data, e.selfPos)
	return e.self
}

// expand returns the sorted distinct column indices of Â over the rows in
// front, reusing dst's storage. The mark scratch is restored before return.
func (e *SubsetEval) expand(front, dst []int) []int {
	if len(front) == e.A.NumRows { // every vertex: its own expansion
		return append(dst[:0], front...)
	}
	dst = dst[:0]
	for _, r := range front {
		for p := e.A.RowPtr[r]; p < e.A.RowPtr[r+1]; p++ {
			c := e.A.ColIdx[p]
			if !e.mark[c] {
				e.mark[c] = true
				dst = append(dst, c)
			}
		}
	}
	sort.Ints(dst)
	for _, c := range dst {
		e.mark[c] = false
	}
	return dst
}

// positionsOf returns, for each v of sub, its index within super; both must
// be sorted ascending and sub ⊆ super (guaranteed by Â's self loops).
func positionsOf(sub, super, dst []int) []int {
	dst = dst[:0]
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			panic(fmt.Sprintf("gcn: vertex %d missing from parent frontier (no self loop?)", v))
		}
		dst = append(dst, j)
		j++
	}
	return dst
}
