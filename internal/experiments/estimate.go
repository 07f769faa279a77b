package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"sagnn"
	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gen"
)

// EstimateRow is one candidate of the predicted-vs-measured cost table: the
// row Cluster.Estimate priced — candidate enumeration, feasibility, static
// verification, both executors' epoch price, predicted volumes and the
// AlgorithmAuto selection all come from the public API, so this table
// cannot drift from what Distribute would select — next to the volumes and
// modeled time actually measured by executing a single distributed SpMM. It
// reproduces the paper's algorithm-comparison methodology from structure
// alone: the winner can be read off the predicted columns, and the Match
// columns certify the prediction byte-for-byte.
type EstimateRow struct {
	sagnn.Candidate
	// PredMultiplyBytes / MeasMultiplyBytes compare one multiply at the
	// feature width — the set-up multiply Â·X a DistGraph pays once, which
	// Candidate.Setup* prices — executed under the requested ExecMode:
	// plan-predicted vs measured total send bytes. Match reports exact
	// equality.
	PredMultiplyBytes int64
	MeasMultiplyBytes int64
	Match             bool
	// MeasMultSec is the ledger delta of executing that same multiply under
	// the requested mode; TimeMatch reports that it agrees with the
	// candidate's SetupSeconds within floating-point noise (the overlapped
	// executor settles exactly its predicted charges, so there it is
	// equality).
	MeasMultSec float64
	TimeMatch   bool
}

// Speedup is EpochSeconds / OverlapSeconds, the modeled benefit of
// pipelining the candidate's epoch.
func (r EstimateRow) Speedup() float64 {
	if r.OverlapSeconds <= 0 {
		return 0
	}
	return r.EpochSeconds / r.OverlapSeconds
}

// measureMultiply executes one collective multiply at h's width and returns
// the total bytes sent across ranks plus the modeled seconds the run charged
// to the ledger.
func measureMultiply(w *comm.World, e distmm.Engine, h *dense.Matrix) (int64, float64) {
	lay := e.Layout()
	v0, l0 := w.Stats().Snapshot(), w.Ledger.Snapshot()
	w.Run(func(r *comm.Rank) {
		lo, hi := lay.Range(e.BlockOf(r.ID))
		e.MultiplyInto(r, h.SliceRows(lo, hi), dense.New(hi-lo, h.Cols))
	})
	return w.Stats().Snapshot().Sub(v0).TotalSent(), w.Ledger.Snapshot().Sub(l0).Total()
}

// EstimateTable prices every algorithm candidate for a preset at process
// count p with Cluster.Estimate under the given machine parameters — pass
// α–β fitted from measured transfers (Cluster.Calibrate) and every candidate
// is priced against the actual hardware instead of the paper's assumed
// constants — and certifies each feasible row by executing exactly one
// distributed SpMM at the feature width under the requested execution mode:
// volumes byte-for-byte, modeled time against the mode's own cost model.
func EstimateTable(preset gen.Preset, scaleDiv, p int, seed int64, mode sagnn.ExecMode, params sagnn.MachineParams) ([]EstimateRow, error) {
	ds, err := loadDataset(preset, seed, scaleDiv)
	if err != nil {
		return nil, err
	}
	cluster, err := sagnn.NewCluster(p, sagnn.WithMachine(params))
	if err != nil {
		return nil, err
	}
	cands, err := cluster.Estimate(ds, sagnn.DistOpts{Exec: mode})
	if err != nil {
		return nil, err
	}
	n, f0 := ds.G.NumVertices(), ds.FeatureDim()
	aHat := ds.NormalizedAdjacency()
	h := dense.NewRandom(rand.New(rand.NewSource(seed+1)), n, f0, 1.0)

	rows := make([]EstimateRow, 0, len(cands))
	for _, cand := range cands {
		row := EstimateRow{Candidate: cand}
		if cand.Skipped == "" {
			w := comm.NewWorld(p, params)
			e, err := distmm.NewEngine(w, string(cand.Algorithm), cand.Replication, aHat, distmm.UniformLayout(n, p/cand.Replication))
			if err != nil {
				return nil, err
			}
			e.SetExecMode(mode)
			for _, v := range e.Plan().Volumes(f0) {
				row.PredMultiplyBytes += v.SentBytes
			}
			row.MeasMultiplyBytes, row.MeasMultSec = measureMultiply(w, e, h)
			row.Match = row.MeasMultiplyBytes == row.PredMultiplyBytes
			row.TimeMatch = timeAgrees(row.SetupSeconds, row.MeasMultSec)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// timeAgrees compares a modeled multiply time against the executed ledger
// delta: equal within accumulated floating-point rounding (the overlapped
// executor settles its prediction exactly; the sequential one re-derives the
// same charges in a slightly different summation order).
func timeAgrees(pred, meas float64) bool {
	diff := pred - meas
	if diff < 0 {
		diff = -diff
	}
	scale := pred
	if meas > scale {
		scale = meas
	}
	return diff <= 1e-9*scale
}

// PrintEstimateTable renders the predicted-vs-measured table: modeled epoch
// time under both executors (with the pipelining speedup), predicted
// per-epoch volumes, the modeled one-time set-up multiply with the executed
// certification of its bytes and modeled time, and the instruction-site
// count the static verifier proved safe.
func PrintEstimateTable(w io.Writer, title string, rows []EstimateRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-22s %2s %12s %12s %8s %10s %10s %10s %14s %14s %6s %7s %6s\n",
		"algorithm", "c", "epoch(ms)", "overlap(ms)", "speedup", "max(MB)", "avg(MB)", "setup(ms)", "setup pred(B)", "setup meas(B)", "match", "tmatch", "sites")
	for _, r := range rows {
		if r.Skipped != "" {
			fmt.Fprintf(w, "%-22s %2d %12s %12s %8s %10s %10s %10s %14s %14s %6s %7s %6s  (%s)\n",
				r.Algorithm, r.Replication, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", r.Skipped)
			continue
		}
		fmt.Fprintf(w, "%-22s %2d %12.3f %12.3f %7.2fx %10.3f %10.3f %10.3f %14d %14d %6v %7v %6d\n",
			r.Algorithm, r.Replication, r.EpochSeconds*1e3, r.OverlapSeconds*1e3, r.Speedup(), r.MaxSentMB, r.AvgSentMB,
			r.SetupSeconds*1e3, r.PredMultiplyBytes, r.MeasMultiplyBytes, r.Match, r.TimeMatch, r.Sites)
	}
}
