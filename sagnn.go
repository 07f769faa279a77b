// Package sagnn is a Go reproduction of "Sparsity-Aware Communication for
// Distributed Graph Neural Network Training" (Mukhodopadhyay, Tripathy,
// Selvitopi, Yelick, Buluç — ICPP 2024).
//
// It provides full-batch distributed GCN training over four distributed
// SpMM algorithms (sparsity-oblivious and sparsity-aware, 1D and 1.5D),
// graph partitioners including a volume-balancing GVB emulation, synthetic
// stand-ins for the paper's datasets, and a simulated multi-rank runtime
// that measures exact communication volumes and models epoch time with the
// paper's α–β machine model.
//
// The composable API separates the expensive, amortizable setup from the
// per-epoch work and from serving, mirroring the paper's observation that
// partitioning and sparsity-aware communication schedules pay off across
// many epochs:
//
//	cluster, _ := sagnn.NewCluster(16)
//	dg, _ := cluster.Distribute(ds, sagnn.DistOpts{
//		Algorithm:   sagnn.SparsityAware1D,
//		Partitioner: sagnn.NewGVB(42),
//	})
//	sess, _ := dg.NewSession(sagnn.ModelConfig{Seed: 7})
//	res, _ := sess.Run(ctx, 20)           // or sess.Step() epoch by epoch
//	classes, _ := res.Model.Predict(ds, []int{0, 1, 2}) // serve from the trained weights
//
// One Distribute (partition + engine build) can back any number of
// sessions; sessions expose Step, epoch callbacks, context cancellation,
// and Snapshot/Restore checkpointing.
//
// On the serving side, the same sparsity-aware discipline answers online
// queries: Model.Predict, Probabilities and ProbabilitiesInto compute a
// request's probabilities by gathering only its L-hop receptive field,
// bit-identical to full-batch inference (a nil request), and
// internal/serve + cmd/serve wrap that path in a micro-batching,
// cache-fronted, hot-swappable HTTP server.
package sagnn

import (
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/partition"
)

// Dataset aliases the internal dataset bundle (graph, features, labels,
// splits).
type Dataset = gen.Dataset

// Preset names one of the built-in dataset stand-ins.
type Preset = gen.Preset

// Dataset presets mirroring the paper's Table 3 (scaled; see DESIGN.md).
const (
	RedditSim  = gen.RedditSim
	AmazonSim  = gen.AmazonSim
	ProteinSim = gen.ProteinSim
	PapersSim  = gen.PapersSim
)

// LoadDataset materialises a preset. scaleDiv ≥ 1 divides the vertex count
// by that (power-of-two) factor; 1 is the full benchmark size.
func LoadDataset(p Preset, seed int64, scaleDiv int) (*Dataset, error) {
	return gen.Load(p, seed, scaleDiv)
}

// MustLoadDataset is LoadDataset that panics on error.
func MustLoadDataset(p Preset, seed int64, scaleDiv int) *Dataset {
	return gen.MustLoad(p, seed, scaleDiv)
}

// Partitioner computes a k-way vertex partition; see NewMetis, NewGVB,
// NewRandom, NewBlock.
type Partitioner = partition.Partitioner

// NewBlock returns the contiguous block partitioner (no reordering).
func NewBlock() Partitioner { return partition.Block{} }

// NewRandom returns the random balanced partitioner.
func NewRandom(seed int64) Partitioner { return partition.Random{Seed: seed} }

// NewMetis returns the multilevel edgecut partitioner (METIS-style
// objective: total cut only).
func NewMetis(seed int64) Partitioner { return partition.MetisLike{Seed: seed} }

// NewGVB returns the volume-balancing multilevel partitioner (Graph-VB
// style objective: max send volume, then total volume).
func NewGVB(seed int64) Partitioner { return partition.GVB{Seed: seed} }

// Algorithm selects a distributed SpMM algorithm.
type Algorithm string

// The four algorithms of the paper.
const (
	Oblivious1D      Algorithm = "oblivious-1d"
	SparsityAware1D  Algorithm = "sparsity-aware-1d"
	Oblivious15D     Algorithm = "oblivious-1.5d"
	SparsityAware15D Algorithm = "sparsity-aware-1.5d"
)

// AlgorithmAuto asks Distribute to choose for you: it compiles candidate
// communication plans (1D and 1.5D, oblivious and sparsity-aware, over the
// replication factors the process count allows), prices each one with the
// cluster's α–β machine model — no data moves — and selects the minimum
// modeled epoch cost. The decision and the full per-candidate table are
// recorded in DistGraph.Report; Cluster.Estimate returns the same table
// without building a DistGraph.
const AlgorithmAuto Algorithm = "auto"

// ExecMode selects how the distributed SpMM engine executes its compiled
// communication plan; see DistOpts.Exec.
type ExecMode = distmm.ExecMode

const (
	// ExecSequential runs each plan stage to completion before the SpMM that
	// consumes it — the bulk-synchronous default.
	ExecSequential = distmm.ExecSequential
	// ExecOverlap pipelines the plan: the next stage's communication is in
	// flight while the current stage's SpMM runs (CAGNET-style
	// comm/compute overlap), joined at the plan's true data dependencies.
	// Training results are bit-identical to ExecSequential — the compute
	// operations run in the same order on the same staged rows — and the
	// traffic is byte-identical; only the modeled epoch time changes, to
	// max(comm, compute) per pipelined stage instead of their sum.
	ExecOverlap = distmm.ExecOverlap
)

// EpochPrice is the modeled cost of full-batch training on a DistGraph: the
// figures the paper's scaling and breakdown plots compare. PriceEpoch
// prices it without training; a TrainResult reports a run's own figures
// under the same names.
type EpochPrice struct {
	// EpochSeconds is the modeled per-epoch time on the paper's machine
	// (A100 + Slingshot α–β model), max-over-ranks per phase. Like every
	// per-epoch figure below it holds epochs only: set-up is reported apart.
	EpochSeconds float64
	// Breakdown splits EpochSeconds into phases: "bcast", "alltoall",
	// "allreduce", "local".
	Breakdown map[string]float64
	// MaxSentMB / AvgSentMB are per-process send volumes per epoch.
	MaxSentMB float64
	AvgSentMB float64
	// TotalRecvMB is the volume delivered to all processes per epoch.
	// Broadcast roots are charged their payload once on the send side
	// (collectives forward data inside the network), so this is the figure
	// that compares wire volume across algorithms.
	TotalRecvMB float64
	// SetupSeconds and SetupMaxSentMB are the modeled time and the largest
	// per-process send volume of the one-time Â·X multiply — whole, not per
	// epoch. PriceEpoch always prices it; a TrainResult reports it only on
	// the run that computed it, the first full-batch run on its DistGraph,
	// and zero on every other run.
	SetupSeconds   float64
	SetupMaxSentMB float64
	// PartitionQuality describes the partition when a Partitioner ran.
	PartitionQuality *partition.Quality
}

// TrainResult reports a finished run.
type TrainResult struct {
	// EpochPrice holds the run's modeled time and measured volumes.
	EpochPrice
	// History is the per-epoch loss/accuracy trajectory.
	History []gcn.EpochResult
	// FinalLoss and FinalTrainAcc summarise the last epoch.
	FinalLoss     float64
	FinalTrainAcc float64
	// ValAcc / TestAcc evaluate the trained model on the dataset's held-out
	// splits (full-batch inference).
	ValAcc  float64
	TestAcc float64
	// Model is the trained weight set, detached from the run: predict with
	// it (Predict, Probabilities, ProbabilitiesInto), serve it through
	// internal/serve, or persist it with MarshalBinary.
	Model *Model
}

// EvaluatePartitioners compares partition quality (edgecut, total and max
// send volume, balance) of the four partitioners on a dataset at k parts.
func EvaluatePartitioners(ds *Dataset, k int, seed int64) []partition.Quality {
	pts := []Partitioner{
		partition.Block{},
		partition.Random{Seed: seed},
		partition.MetisLike{Seed: seed},
		partition.GVB{Seed: seed},
	}
	out := make([]partition.Quality, 0, len(pts))
	for _, pt := range pts {
		p := pt.Partition(ds.G, k)
		out = append(out, partition.Evaluate(pt.Name(), ds.G, p))
	}
	return out
}
