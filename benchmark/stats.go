package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// overBlocks cuts ops (in time order) into blocks equal consecutive blocks
// and applies stat to each. Callers report the median of the block values —
// so one noisy-neighbour burst moves one block, not the result. A trailing
// remainder shorter than a block is dropped; with fewer operations than
// blocks stat sees everything at once.
func overBlocks(ops []sample, blocks int, stat func([]sample) float64) []float64 {
	size := len(ops) / blocks
	if size == 0 {
		return []float64{stat(ops)}
	}
	vals := make([]float64, blocks)
	for b := range vals {
		vals[b] = stat(ops[b*size : (b+1)*size])
	}
	return vals
}

// medianMs is the median duration of ops in ms.
func medianMs(ops []sample) float64 {
	return median(durationsMs(ops))
}

func durationsMs(ops []sample) []float64 {
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = o.end.Sub(o.start).Seconds() * 1e3
	}
	return ms
}

// tailPercentile returns the p-th percentile (nearest rank) of xs if at
// least beyond samples lie above it; otherwise it backs off to the highest
// percentile that still has beyond samples above it. It reports the
// percentile actually used (0 when xs has too few samples for any tail).
func tailPercentile(xs []float64, p float64, beyond int) (value, used float64) {
	n := len(xs)
	if n <= beyond {
		return median(xs), 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if maxRank := n - beyond; rank > maxRank {
		rank = maxRank
	}
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], float64(rank) / float64(n)
}

// quartiles matches Python's statistics.quantiles(xs, n=4): the exclusive
// method the driver uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i * (n + 1) % 4)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
