// Quickstart: the composable session API end to end. Build a cluster and a
// distributed graph once (partitioning + sparsity-aware communication
// schedule), train a 3-layer GCN on it with a steppable session, confirm
// the learning curve matches the serial reference, then serve predictions
// from the trained model — the paper's headline configuration (16 GPUs,
// sparsity-aware 1D, GVB partitioning).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"sagnn"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	scaleDiv := flag.Int("scalediv", 16, "dataset scale divisor (1 = full size)")
	epochs := flag.Int("epochs", 10, "training epochs")
	flag.Parse()

	// Load a scaled-down Protein-like dataset (use -scalediv 1 for full size).
	ds, err := sagnn.LoadDataset(sagnn.ProteinSim, 42, *scaleDiv)
	check(err)
	fmt.Printf("dataset %s: %d vertices, %d edges, f=%d, %d classes\n\n",
		ds.Name, ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim(), ds.Classes)

	// Serial reference run.
	serial, err := sagnn.RunSerial(ds, *epochs, sagnn.ModelConfig{Seed: 7})
	check(err)
	fmt.Println("serial reference:")
	for _, e := range serial.History {
		if e.Epoch%3 == 0 {
			fmt.Printf("  epoch %2d  loss %.4f\n", e.Epoch, e.Loss)
		}
	}

	// Build once: 16 simulated GPUs, sparsity-aware 1D communication, and
	// the volume-balancing partitioner. Everything expensive happens here —
	// sessions created after this reuse the partition and NnzCols schedule.
	cluster, err := sagnn.NewCluster(16)
	check(err)
	dg, err := cluster.Distribute(ds, sagnn.DistOpts{
		Algorithm:   sagnn.SparsityAware1D,
		Partitioner: sagnn.NewGVB(42),
	})
	check(err)

	// Iterate: a session trains epoch by epoch; Run wires in context
	// cancellation and epoch callbacks (use sess.Step() for manual control).
	sess, err := dg.NewSession(sagnn.ModelConfig{Seed: 7})
	check(err)
	res, err := sess.Run(context.Background(), *epochs)
	check(err)
	fmt.Println("\ndistributed (16 GPUs, SA+GVB):")
	for _, e := range res.History {
		if e.Epoch%3 == 0 {
			fmt.Printf("  epoch %2d  loss %.4f\n", e.Epoch, e.Loss)
		}
	}

	fmt.Printf("\nmodeled epoch time on the paper's machine: %.5fs\n", res.EpochSeconds)
	phases := make([]string, 0, len(res.Breakdown))
	for ph := range res.Breakdown {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Printf("  %-10s %.5fs\n", ph, res.Breakdown[ph])
	}
	fmt.Printf("send volume per process per epoch: avg %.2f MB, max %.2f MB\n",
		res.AvgSentMB, res.MaxSentMB)
	if q := res.PartitionQuality; q != nil {
		fmt.Printf("partition quality: %s\n", q)
	}

	// Serve: the trained weights answer queries without touching training.
	test, err := res.Model.Accuracy(ds, ds.Test)
	check(err)
	classes, err := res.Model.Predict(ds, []int{0, 1, 2})
	check(err)
	fmt.Printf("\npredictor: test acc %.3f, vertices 0..2 → classes %v\n", test[0], classes)
}
