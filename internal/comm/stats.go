package comm

import (
	"sync/atomic"

	"sagnn/internal/machine"
)

// AllReduceVolume predicts the exact per-rank traffic one AllReduceSumInto
// of n float64 elements over a group of size members accounts to each
// participant — the numbers Stats measures, exported so schedule predictors
// that mix Plan.Volumes with explicit all-reduces (the sampled training
// loop's loss and gradient reductions) can match the executed ledger
// byte-exactly.
func AllReduceVolume(n, size int) (sentBytes, recvBytes, msgs int64) {
	if size <= 1 {
		return 0, 0, 0
	}
	nb := int64(n) * machine.BytesPerElem
	return nb, nb, int64(size - 1)
}

// Stats holds exact per-rank communication volume counters, the raw data
// behind the paper's Table 2 (average vs maximum send volume and the load
// imbalance between them). Summaries over ranks are read from a Snapshot.
type Stats struct {
	bytesSent []atomic.Int64
	bytesRecv []atomic.Int64
	msgsSent  []atomic.Int64
}

func newStats(p int) *Stats {
	return &Stats{
		bytesSent: make([]atomic.Int64, p),
		bytesRecv: make([]atomic.Int64, p),
		msgsSent:  make([]atomic.Int64, p),
	}
}

func (s *Stats) addSend(rank int, bytes, msgs int64) {
	s.bytesSent[rank].Add(bytes)
	s.msgsSent[rank].Add(msgs)
}

func (s *Stats) addRecv(rank int, bytes int64) {
	s.bytesRecv[rank].Add(bytes)
}

// BytesSent returns the bytes sent so far by rank.
func (s *Stats) BytesSent(rank int) int64 { return s.bytesSent[rank].Load() }

// BytesRecv returns the bytes received so far by rank.
func (s *Stats) BytesRecv(rank int) int64 { return s.bytesRecv[rank].Load() }

// MsgsSent returns the number of messages sent so far by rank.
func (s *Stats) MsgsSent(rank int) int64 { return s.msgsSent[rank].Load() }

// VolumeSnapshot is an immutable copy of the volume counters, taken with
// Stats.Snapshot. Subtracting two snapshots isolates the traffic of one run
// on a long-lived world, so sessions report per-run volumes without
// resetting shared counters.
type VolumeSnapshot struct {
	sent, recv, msgs []int64
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() *VolumeSnapshot {
	p := len(s.bytesSent)
	v := &VolumeSnapshot{
		sent: make([]int64, p),
		recv: make([]int64, p),
		msgs: make([]int64, p),
	}
	for i := 0; i < p; i++ {
		v.sent[i] = s.bytesSent[i].Load()
		v.recv[i] = s.bytesRecv[i].Load()
		v.msgs[i] = s.msgsSent[i].Load()
	}
	return v
}

// Sub returns the per-rank difference v − earlier: the traffic between the
// two snapshots. A nil earlier is treated as all zeros.
func (v *VolumeSnapshot) Sub(earlier *VolumeSnapshot) *VolumeSnapshot {
	d := &VolumeSnapshot{
		sent: append([]int64(nil), v.sent...),
		recv: append([]int64(nil), v.recv...),
		msgs: append([]int64(nil), v.msgs...),
	}
	if earlier != nil {
		for i := range d.sent {
			d.sent[i] -= earlier.sent[i]
			d.recv[i] -= earlier.recv[i]
			d.msgs[i] -= earlier.msgs[i]
		}
	}
	return d
}

// Add returns the per-rank sum v + other. A nil receiver acts as zero and
// returns other unchanged (sessions accumulate per-step deltas from nil).
func (v *VolumeSnapshot) Add(other *VolumeSnapshot) *VolumeSnapshot {
	if v == nil {
		return other
	}
	d := v.Sub(nil)
	if other != nil {
		for i := range d.sent {
			d.sent[i] += other.sent[i]
			d.recv[i] += other.recv[i]
			d.msgs[i] += other.msgs[i]
		}
	}
	return d
}

// BytesSent returns the bytes sent by rank in the snapshot.
func (v *VolumeSnapshot) BytesSent(rank int) int64 { return v.sent[rank] }

// BytesRecv returns the bytes received by rank in the snapshot.
func (v *VolumeSnapshot) BytesRecv(rank int) int64 { return v.recv[rank] }

// TotalSent sums bytes sent over all ranks.
func (v *VolumeSnapshot) TotalSent() int64 {
	var t int64
	for _, b := range v.sent {
		t += b
	}
	return t
}

// TotalRecv sums bytes received over all ranks.
func (v *VolumeSnapshot) TotalRecv() int64 {
	var t int64
	for _, b := range v.recv {
		t += b
	}
	return t
}

// MaxSent returns the largest per-rank send volume in the snapshot.
func (v *VolumeSnapshot) MaxSent() int64 {
	var m int64
	for _, b := range v.sent {
		if b > m {
			m = b
		}
	}
	return m
}

// AvgSent returns the mean per-rank send volume in the snapshot.
func (v *VolumeSnapshot) AvgSent() float64 {
	if len(v.sent) == 0 {
		return 0
	}
	return float64(v.TotalSent()) / float64(len(v.sent))
}
