package comm

import (
	"fmt"
	"time"

	"sagnn/internal/machine"
)

// Calibration is the result of the α–β fitting probe: the fitted postal
// parameters (in seconds and seconds per logical byte — directly assignable
// to machine.Params) and the per-size samples they were fitted from. On a
// TCP world every process returns the same Alpha/Beta bit for bit: rank 0's
// fit is authoritative and is broadcast to all ranks, so every process's
// machine parameters — and therefore every process's AlgorithmAuto decision —
// agree.
type Calibration struct {
	Alpha float64
	Beta  float64
	// Samples are this process's own measurements (one-way seconds per
	// transfer size). On TCP only the rank-0 process measures; other
	// processes carry zero Seconds and rely on the broadcast fit.
	Samples []machine.FitSample
}

// Apply returns p with Alpha and Beta replaced by the fitted values.
func (c Calibration) Apply(p machine.Params) machine.Params {
	p.Alpha = c.Alpha
	p.Beta = c.Beta
	return p
}

// DefaultCalibrationSizes is the standard sweep: payload element counts from
// latency-dominated (1 KiB logical) to bandwidth-dominated (1 MiB logical).
func DefaultCalibrationSizes() []int {
	return []int{256, 1024, 4096, 16384, 65536, 262144}
}

// Calibrate runs the ping-pong latency/bandwidth sweep between ranks 0 and 1
// and fits α and β from the measured transfers (machine.FitAlphaBeta). On
// an in-process world the "measurement" is the exact modeled charge read
// off the ledger, so the fit recovers the configured machine parameters —
// the golden test pinning the procedure itself. Over TCP it is wall-clock
// RTT/2 at rank 0, producing real localhost (or cross-host) parameters in
// logical-byte units. Collective on a TCP world: every process must call it
// at the same point in its schedule. reps ≤ 0 selects the default repetition
// count.
func Calibrate(w *World, sizes []int, reps int) (Calibration, error) {
	if w.P < 2 {
		return Calibration{}, fmt.Errorf("comm: calibration needs at least 2 ranks, world has %d", w.P)
	}
	if len(sizes) < 2 {
		return Calibration{}, fmt.Errorf("comm: calibration needs at least 2 transfer sizes, got %d", len(sizes))
	}
	if reps <= 0 {
		reps = 10
	}
	samples := make([]machine.FitSample, 0, len(sizes))
	for _, n := range sizes {
		sec, err := w.pingpong(n, reps)
		if err != nil {
			return Calibration{}, err
		}
		samples = append(samples, machine.FitSample{Bytes: int64(n) * machine.BytesPerElem, Seconds: sec})
	}
	// Rank 0's fit is authoritative; other TCP processes have no local
	// measurements and take the broadcast values.
	fitted := make([]float64, 2)
	if w.LocalRank() == 0 {
		alpha, beta, err := machine.FitAlphaBeta(samples)
		if err != nil {
			return Calibration{}, err
		}
		fitted[0], fitted[1] = alpha, beta
	}
	var alpha, beta float64
	err := w.RunErr(func(r *Rank) error {
		dst := []float64{0, 0}
		w.WorldGroup().BcastFloatsInto(r, 0, fitted, dst, "calibrate")
		if r.ID == w.LocalRank() {
			alpha, beta = dst[0], dst[1]
		}
		return nil
	})
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{Alpha: alpha, Beta: beta, Samples: samples}, nil
}

// pingpong measures the mean one-way time of an n-element transfer between
// ranks 0 and 1 over reps round trips: the exact "calibrate"-phase ledger
// delta on an in-process world, wall-clock RTT/2 at rank 0 over TCP.
func (w *World) pingpong(n, reps int) (float64, error) {
	before := w.Ledger.Snapshot()
	var rtt time.Duration
	err := w.RunErr(func(r *Rank) error {
		if r.ID > 1 {
			return nil
		}
		buf := r.GetFloats(n)
		defer r.PutFloats(buf)
		for i := range buf {
			buf[i] = float64(i)
		}
		if r.ID == 0 {
			start := time.Now()
			for k := 0; k < reps; k++ {
				r.Send(1, tagCalibrate, buf, "calibrate")
				if err := r.TryRecvInto(1, tagCalibrate, buf); err != nil {
					return err
				}
			}
			rtt = time.Since(start)
			return nil
		}
		for k := 0; k < reps; k++ {
			if err := r.TryRecvInto(0, tagCalibrate, buf); err != nil {
				return err
			}
			r.Send(0, tagCalibrate, buf, "calibrate")
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if w.net == nil {
		return w.Ledger.Snapshot().Sub(before).PhaseMax("calibrate") / float64(reps), nil
	}
	return rtt.Seconds() / float64(2*reps), nil
}
