// Fraud detection: one of the motivating GNN applications in the paper's
// introduction. We synthesise a transaction network where fraud rings form
// dense communities (a stochastic block model), attach noisy behavioural
// features, and train distributed GCNs to classify accounts by ring.
//
// The example exercises the build-once/train-many shape of the session
// API: the cluster and the distributed graph (partition + sparsity-aware
// schedule) are built once, then reused by several training sessions with
// different seeds — model selection without repeating the setup — and the
// best run's model classifies accounts with Model.Predict.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sagnn"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	accounts := flag.Int("accounts", 4096, "number of accounts in the transaction graph")
	epochs := flag.Int("epochs", 20, "training epochs per session")
	flag.Parse()

	const rings = 8 // 7 fraud rings + legitimate traffic, as communities
	const (
		intraRingDegree = 12
		crossRingDegree = 3
		featureDim      = 32
		featureNoise    = 0.6
		seed            = 2024
	)
	ds := sagnn.GenerateCommunityDataset("transactions", *accounts, rings,
		intraRingDegree, crossRingDegree, featureDim, featureNoise, seed)
	fmt.Printf("transaction graph: %d accounts, %d edges, %d rings\n\n",
		ds.G.NumVertices(), ds.G.NumEdges(), ds.Classes)

	// First, why communication optimization matters for this workload: the
	// same model under three communication schemes on one 16-GPU cluster.
	cluster, err := sagnn.NewCluster(16)
	check(err)
	for _, cfg := range []struct {
		label string
		algo  sagnn.Algorithm
		part  sagnn.Partitioner
	}{
		{"sparsity-oblivious (CAGNET)", sagnn.Oblivious1D, nil},
		{"sparsity-aware", sagnn.SparsityAware1D, nil},
		{"sparsity-aware + GVB", sagnn.SparsityAware1D, sagnn.NewGVB(1)},
	} {
		dg, err := cluster.Distribute(ds, sagnn.DistOpts{Algorithm: cfg.algo, Partitioner: cfg.part})
		check(err)
		sess, err := dg.NewSession(sagnn.ModelConfig{LR: 0.2, Seed: 5})
		check(err)
		res, err := sess.Run(context.Background(), *epochs)
		check(err)
		fmt.Printf("%-28s loss %.4f  epoch %.5fs  max send %.2f MB\n",
			cfg.label, res.FinalLoss, res.EpochSeconds, res.MaxSentMB)
	}
	fmt.Println("\nAll three reach the same loss — the algorithms are numerically")
	fmt.Println("equivalent; only the communication (and therefore epoch time) differs.")

	// Build-once/train-many: one distributed graph, several seeds. The
	// partition and NnzCols schedule are computed exactly once.
	dg, err := cluster.Distribute(ds, sagnn.DistOpts{
		Algorithm:   sagnn.SparsityAware1D,
		Partitioner: sagnn.NewGVB(1),
	})
	check(err)
	var best *sagnn.Model
	var bestAcc []float64 // validation, test
	fmt.Println("\nmodel selection on one distributed graph:")
	for _, s := range []int64{3, 5, 11} {
		sess, err := dg.NewSession(sagnn.ModelConfig{LR: 0.2, Seed: s})
		check(err)
		res, err := sess.Run(context.Background(), *epochs)
		check(err)
		accs, err := res.Model.Accuracy(ds, ds.Val, ds.Test)
		check(err)
		fmt.Printf("  seed %2d: loss %.4f  val acc %.3f\n", s, res.FinalLoss, accs[0])
		if best == nil || accs[0] > bestAcc[0] {
			best, bestAcc = res.Model, accs
		}
	}

	// Serve the winning model: classify the first few accounts by ring.
	sample := []int{0, 1, 2, 3, 4}
	classes, err := best.Predict(ds, sample)
	check(err)
	fmt.Printf("\nbest model test accuracy: %.3f\n", bestAcc[1])
	for i, v := range sample {
		fmt.Printf("  account %d → ring %d (true %d)\n", v, classes[i], ds.Labels[v])
	}
}
