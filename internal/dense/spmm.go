package dense

import "fmt"

// SpMMRow is the row kernel of a sparse × dense product: one CSR row's
// nonzeros (values w, column indices idx, in CSR order) against the rows of
// h, o[j] = Σ_p w[p]·h[idx[p]][j] for every j < len(o), continued from o[j]
// when add is set. Like the GEMM tile's first two tiers it has two
// implementations with one contract: spmmRowPortable, the Go loop every
// architecture runs, and on amd64 CPUs with AVX2 spmmRowVector
// (spmm_amd64.s: 16, 8 or 4 columns in vector lanes). Each output element
// receives its products in ascending position p, each rounded before it is
// added (no fused multiply-add), so both equal the plain loop bit for bit. vector picks the vector form; the
// callers pass VectorKernels(), the tests both. len(o) must be h.Cols, w as
// long as idx; an index outside [0, h.Rows) panics under either form (when
// there is a column to compute).
func SpMMRow(vector bool, o, w []float64, idx []int, h *Matrix, add bool) {
	if len(o) != h.Cols || len(w) != len(idx) {
		panic(fmt.Sprintf("dense: SpMM row of %d columns, %d values, %d indices against a %dx%d matrix",
			len(o), len(w), len(idx), h.Rows, h.Cols))
	}
	hd := h.Data[:h.Rows*h.Cols]
	if vector {
		spmmRowVector(o, w, idx, hd, h.Rows, add)
	} else {
		spmmRowPortable(o, w, idx, hd, add)
	}
}

// VectorKernels reports whether this CPU runs the vector forms of the
// kernels: amd64 with AVX2, checked once from CPUID.
func VectorKernels() bool { return hostTier >= tierAVX2 }

// nnzBlock is how many nonzeros of a row one pass of the portable kernel
// covers: each is a stream through a row of h, and sixteen at a time are few
// enough for the hardware prefetchers to follow at the feature width.
const nnzBlock = 16

// spmmRowPortable is SpMMRow in Go: eight columns of o held in locals across
// a block of the row's nonzeros and stored once, starting from zero only on
// an overwriting product's first block, then the last 1–7 columns one at a
// time.
func spmmRowPortable(o, w []float64, idx []int, h []float64, add bool) {
	f := len(o)
	for p0 := 0; p0 == 0 || p0 < len(idx); p0 += nnzBlock {
		cols := idx[p0:min(p0+nnzBlock, len(idx))]
		vals := w[p0:min(p0+nnzBlock, len(idx))][:len(cols)]
		add := add || p0 > 0
		j := 0
		for ; j+8 <= f; j += 8 {
			o := o[j : j+8 : j+8]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			if add {
				s0, s1, s2, s3, s4, s5, s6, s7 = o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
			}
			for p, c := range cols {
				v := vals[p]
				hr := h[c*f+j : c*f+j+8 : c*f+j+8]
				s0 += v * hr[0]
				s1 += v * hr[1]
				s2 += v * hr[2]
				s3 += v * hr[3]
				s4 += v * hr[4]
				s5 += v * hr[5]
				s6 += v * hr[6]
				s7 += v * hr[7]
			}
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; j < f; j++ {
			var s float64
			if add {
				s = o[j]
			}
			for p, c := range cols {
				s += vals[p] * h[c*f+j]
			}
			o[j] = s
		}
	}
}
