// Command train runs distributed GCN training on a dataset preset through
// the composable session API (Cluster → Distribute → Session → Predictor)
// and reports the loss trajectory, accuracy, and modeled performance.
// Training is full-batch by default; -sample switches to neighbor-sampled
// mini-batch epochs (-fanout, -batch), whose per-batch halo exchanges are
// compiled into the same plan IR and are equally bit-identical across
// transports.
//
// Usage:
//
//	train -dataset protein-sim -p 16 -algo sa -partitioner gvb -epochs 50
//	train -dataset protein-sim -p 4 -sample -fanout 5 -batch 128 -epochs 20
//
// The default transport is the in-process simulated communicator. With
// -transport tcp the same training runs as p real OS processes connected
// over localhost TCP: the parent re-executes itself once per rank (child
// processes get -rank appended), the processes rendezvous on consecutive
// ports from -baseport, and every collective moves real bytes. Losses are
// bit-identical across transports; -lossout writes the per-epoch loss
// trajectory as hex-encoded float64 bits so that can be checked with cmp.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"

	"sagnn"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	dataset := flag.String("dataset", "reddit-sim", "dataset preset")
	scaleDiv := flag.Int("scalediv", 8, "dataset scale divisor (1 = full size)")
	p := flag.Int("p", 4, "number of processes (GPUs); OS processes under -transport tcp")
	c := flag.Int("c", 1, "1.5D replication factor (1 = 1D algorithms)")
	algo := flag.String("algo", "sa", "algorithm: oblivious or sa")
	partitioner := flag.String("partitioner", "none", "partitioner: none, block, random, metis, gvb")
	epochs := flag.Int("epochs", 20, "training epochs")
	hidden := flag.Int("hidden", 16, "hidden units per layer")
	layers := flag.Int("layers", 3, "GCN layers")
	lr := flag.Float64("lr", 0.05, "learning rate")
	seed := flag.Int64("seed", 1, "random seed")
	sampleFlag := flag.Bool("sample", false, "train with neighbor-sampled mini-batches (Session.RunSampled) instead of full-batch epochs; requires -c 1")
	fanout := flag.Int("fanout", 5, "with -sample: sampled neighbors per vertex per layer")
	batch := flag.Int("batch", 256, "with -sample: per-rank mini-batch size")
	transport := flag.String("transport", "sim", "communication backend: sim (in-process) or tcp (one OS process per rank)")
	rank := flag.Int("rank", -1, "rank hosted by this process under -transport tcp; -1 launches all ranks as child processes")
	baseport := flag.Int("baseport", 29500, "first TCP port; rank i listens on baseport+i")
	lossout := flag.String("lossout", "", "write per-epoch losses (hex float64 bits, one per line) to this file")
	calibrate := flag.Bool("calibrate", false, "after training, run the α–β calibration probe and print the fitted parameters")
	flag.Parse()

	switch *transport {
	case "sim", "tcp":
	default:
		fatal(fmt.Errorf("unknown transport %q (want sim or tcp)", *transport))
	}
	if *transport == "tcp" && *rank < 0 {
		// Launcher mode: re-exec one child per rank and wait for all of them.
		os.Exit(launchTCP(*p))
	}

	cluster, err := buildCluster(*transport, *p, *rank, *baseport)
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	// Exactly one process narrates: rank 0 under TCP, the only process in sim.
	chatty := cluster.LocalRank() == 0
	logf := func(format string, a ...any) {
		if chatty {
			fmt.Printf(format, a...)
		}
	}

	ds, err := sagnn.LoadDataset(sagnn.Preset(*dataset), *seed, *scaleDiv)
	if err != nil {
		fatal(err)
	}
	logf("dataset %s: %d vertices, %d edges, f=%d, %d classes\n",
		ds.Name, ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim(), ds.Classes)

	var alg sagnn.Algorithm
	switch {
	case *algo == "oblivious" && *c == 1:
		alg = sagnn.Oblivious1D
	case *algo == "oblivious":
		alg = sagnn.Oblivious15D
	case *algo == "sa" && *c == 1:
		alg = sagnn.SparsityAware1D
	case *algo == "sa":
		alg = sagnn.SparsityAware15D
	default:
		fatal(fmt.Errorf("unknown algorithm %q (want oblivious or sa)", *algo))
	}

	var part sagnn.Partitioner
	switch *partitioner {
	case "none":
	case "block":
		part = sagnn.NewBlock()
	case "random":
		part = sagnn.NewRandom(*seed)
	case "metis":
		part = sagnn.NewMetis(*seed)
	case "gvb":
		part = sagnn.NewGVB(*seed)
	default:
		fatal(fmt.Errorf("unknown partitioner %q", *partitioner))
	}

	// Build once: the partitioned + scheduled distributed graph. Under TCP
	// every process runs this same deterministic setup and compiles the
	// identical plan.
	opts := sagnn.DistOpts{
		Algorithm:   alg,
		Replication: *c,
		Partitioner: part,
	}
	if *sampleFlag {
		opts.Sampling = &sagnn.SamplingConfig{Fanout: *fanout, BatchSize: *batch, Seed: *seed}
	}
	dg, err := cluster.Distribute(ds, opts)
	if err != nil {
		fatal(err)
	}

	// Train: a session with a progress callback. The callback is registered
	// in every process — launch structure must match across ranks — but only
	// rank 0 prints.
	sess, err := dg.NewSession(sagnn.ModelConfig{
		Hidden: *hidden,
		Layers: *layers,
		LR:     *lr,
		Seed:   *seed,
	}, sagnn.WithEpochCallback(func(e sagnn.EpochResult) error {
		if e.Epoch%5 == 0 || e.Epoch == *epochs-1 {
			logf("epoch %3d  loss %.4f  train acc %.3f\n", e.Epoch, e.Loss, e.TrainAcc)
		}
		return nil
	}))
	if err != nil {
		fatal(err)
	}
	var res *sagnn.TrainResult
	if *sampleFlag {
		logf("sampled training: fanout %d, batch %d per rank\n", *fanout, *batch)
		res, err = sess.RunSampled(context.Background(), *epochs)
	} else {
		res, err = sess.Run(context.Background(), *epochs)
	}
	if err != nil {
		fatal(err)
	}

	if *lossout != "" && chatty {
		if err := writeLosses(*lossout, res.History); err != nil {
			fatal(err)
		}
	}

	logf("\nmodeled epoch time: %.5fs on %d GPUs (%s, transport %s); one-time Â·X set-up beside it: %.5fs, %.2f MB max sent\n",
		res.EpochSeconds, *p, alg, cluster.Transport(), res.SetupSeconds, res.SetupMaxSentMB)
	phases := make([]string, 0, len(res.Breakdown))
	for ph := range res.Breakdown {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		logf("  %-10s %.5fs\n", ph, res.Breakdown[ph])
	}
	if cluster.Transport() == "tcp" {
		logf("rank %d send volume: %.2f MB per epoch\n", cluster.LocalRank(), res.MaxSentMB)
	} else {
		logf("per-process send volume: avg %.2f MB, max %.2f MB per epoch; delivered to all processes: %.2f MB\n",
			res.AvgSentMB, res.MaxSentMB, res.TotalRecvMB)
	}
	logf("val acc %.3f  test acc %.3f\n", res.ValAcc, res.TestAcc)
	if q := res.PartitionQuality; q != nil {
		logf("partition: %s\n", q)
	}

	// Calibration is collective: every process runs the probe at this same
	// point; rank 0's fit is broadcast so all agree, and rank 0 reports it.
	if *calibrate {
		cal, err := cluster.Calibrate()
		if err != nil {
			fatal(err)
		}
		logf("calibrated α = %.3e s, β = %.3e s/B (%.2f GB/s) on transport %s\n",
			cal.Alpha, cal.Beta, 1/(cal.Beta*1e9), cluster.Transport())
	}

	// Serve: classify a few vertices from the retained model. Every process
	// holds the same trained weights; rank 0 demonstrates.
	pred := sess.Predictor()
	n := 5
	if ds.G.NumVertices() < n {
		n = ds.G.NumVertices()
	}
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	classes, err := pred.Predict(sample)
	if err != nil {
		fatal(err)
	}
	logf("predictor sample (vertex→class): ")
	for i, v := range sample {
		logf("%d→%d ", v, classes[i])
	}
	logf("\n")
}

// buildCluster constructs the cluster for the selected transport: the
// simulated world hosting all p ranks in-process, or a TCP world hosting
// exactly rank self with peers on consecutive localhost ports.
func buildCluster(transport string, p, self, baseport int) (*sagnn.Cluster, error) {
	if transport == "sim" {
		return sagnn.NewCluster(p)
	}
	if self >= p {
		return nil, fmt.Errorf("rank %d out of range for %d processes", self, p)
	}
	return sagnn.NewTCPCluster(self, localPeers(p, baseport))
}

// localPeers is the static rendezvous list for a localhost run: rank i
// listens on baseport+i.
func localPeers(p, baseport int) []string {
	peers := make([]string, p)
	for i := range peers {
		peers[i] = fmt.Sprintf("127.0.0.1:%d", baseport+i)
	}
	return peers
}

// launchTCP re-executes this binary once per rank with -rank appended (the
// last occurrence of a flag wins, so the children drop into worker mode) and
// waits for all of them. Child stdout/stderr pass through; rank 0 is the
// only talkative one. Returns the exit code: non-zero if any child failed.
func launchTCP(p int) int {
	cmds := make([]*exec.Cmd, p)
	for i := range cmds {
		args := append(append([]string(nil), os.Args[1:]...), fmt.Sprintf("-rank=%d", i))
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d failed to start: %v\n", i, err)
			for _, prev := range cmds[:i] {
				prev.Process.Kill()
			}
			return 1
		}
		cmds[i] = cmd
	}
	code := 0
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", i, err)
			code = 1
		}
	}
	return code
}

// writeLosses writes one line per epoch: the loss's IEEE-754 bits as 16 hex
// digits. Bit-exact across transports by construction, so a TCP run's file
// can be compared byte for byte against a simulated run's.
func writeLosses(path string, hist []sagnn.EpochResult) error {
	var b strings.Builder
	for _, e := range hist {
		fmt.Fprintf(&b, "%016x\n", math.Float64bits(e.Loss))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
