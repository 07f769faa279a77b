// Package machine models the target machine of the paper — Perlmutter
// nodes with 4 A100 GPUs, NVLink within a node and Slingshot-11 NICs across
// nodes — with the same α–β (latency–inverse-bandwidth) model the paper
// uses for its communication analysis, plus effective flop rates for the
// local compute kernels.
//
// The simulated communicator in package comm performs real data movement
// between rank goroutines and measures exact byte volumes; this package
// converts those volumes into modeled wall-clock seconds so experiment
// output has the shape of the paper's GPU measurements rather than the
// shape of a laptop's memcpy performance.
package machine

import "math"

// Params holds the α–β machine parameters and effective compute rates.
type Params struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is seconds per byte (reciprocal bandwidth) of a single link.
	Beta float64
	// SpMMRate is the effective flop rate (flop/s) of the local sparse-dense
	// multiply (cuSPARSE csrmm2 is memory bound, far below peak).
	SpMMRate float64
	// GEMMRate is the effective flop rate of dense GEMM (cuBLAS, near peak
	// for the tall-skinny shapes of GCN layers it is also bandwidth-limited).
	GEMMRate float64
	// MemBandwidth is bytes/s of device memory, charged for the row
	// gather/scatter packing that sparsity-aware communication introduces.
	MemBandwidth float64
}

// Perlmutter returns parameters approximating the paper's testbed: 25 GB/s
// per-NIC bandwidth, ~5 µs effective point-to-point latency through the
// NCCL/network stack, A100-class effective kernel rates, and 1.5 TB/s HBM.
func Perlmutter() Params {
	return Params{
		Alpha:        5e-6,
		Beta:         1.0 / (25e9),
		SpMMRate:     1.5e12,
		GEMMRate:     12e12,
		MemBandwidth: 1.2e12,
	}
}

// BytesPerElem is the wire size of one dense matrix element. The paper
// trains in 32-bit floats on GPUs; our simulation stores float64 but
// accounts volume at 4 bytes/element to match the paper's data sizes.
const BytesPerElem = 4

// BcastTime models a pipelined-tree broadcast of n bytes among g ranks:
// latency grows with log g, bandwidth is paid once. This is the collective
// efficiency that makes sparsity-oblivious algorithms attractive at small P.
func (p Params) BcastTime(nBytes int64, g int) float64 {
	if g <= 1 || nBytes < 0 {
		return 0
	}
	return math.Ceil(math.Log2(float64(g)))*p.Alpha + float64(nBytes)*p.Beta
}

// AllReduceTime models a tree/ring hybrid all-reduce of n bytes among g
// ranks (NCCL-style): logarithmic latency, 2(g-1)/g bandwidth terms.
func (p Params) AllReduceTime(nBytes int64, g int) float64 {
	if g <= 1 || nBytes <= 0 {
		return 0
	}
	gf := float64(g)
	return 2*math.Ceil(math.Log2(gf))*p.Alpha + 2*(gf-1)/gf*float64(nBytes)*p.Beta
}

// P2PTime models a single point-to-point message.
func (p Params) P2PTime(nBytes int64) float64 {
	if nBytes < 0 {
		return 0
	}
	return p.Alpha + float64(nBytes)*p.Beta
}

// AllToAllvTime models one rank's cost in a personalized all-to-all
// implemented (as in NCCL) by grouped point-to-point sends: one latency per
// partner and serialized injection of sent plus received bytes. The
// serialized send+recv term is what makes point-to-point traffic scale
// linearly in volume, the disadvantage the paper notes for sparsity-aware
// exchanges on graphs whose nonzero column sets saturate.
func (p Params) AllToAllvTime(sendBytes, recvBytes int64, partners int) float64 {
	if partners < 0 {
		partners = 0
	}
	return float64(partners)*p.Alpha + float64(sendBytes+recvBytes)*p.Beta
}

// SpMMTime converts an SpMM flop count to seconds.
func (p Params) SpMMTime(flops int64) float64 { return float64(flops) / p.SpMMRate }

// GEMMTime converts a GEMM flop count to seconds.
func (p Params) GEMMTime(flops int64) float64 { return float64(flops) / p.GEMMRate }

// CopyTime charges a device-memory pack/unpack of n bytes (read + write).
func (p Params) CopyTime(nBytes int64) float64 {
	return 2 * float64(nBytes) / p.MemBandwidth
}
