// Mini-batch vs full-batch: the tradeoff the paper's introduction builds
// on. Neighbor-sampled mini-batch training (GraphSAGE style) avoids the
// full-graph SpMM but pays for irregular sampling and gradient noise;
// full-batch training — the paper's subject — computes exact gradients
// with a handful of large SpMMs whose communication can then be optimized
// with sparsity-awareness and partitioning.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sagnn"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	n := flag.Int("n", 4096, "graph size (vertices)")
	epochs := flag.Int("epochs", 30, "training epochs")
	flag.Parse()

	ds := sagnn.GenerateCommunityDataset("social", *n, 8, 12, 3, 32, 0.5, 77)
	fmt.Printf("graph: %d vertices, %d edges, %d classes\n\n",
		ds.G.NumVertices(), ds.G.NumEdges(), ds.Classes)

	// Full-batch training (serial reference, exact gradients).
	t0 := time.Now()
	full, err := sagnn.RunSerial(ds, *epochs, sagnn.ModelConfig{LR: 0.3, Seed: 5})
	check(err)
	fullWall := time.Since(t0)

	// Mini-batch training with neighbor sampling (fanout 5, batch 256).
	t0 = time.Now()
	mb, err := sagnn.RunMiniBatch(ds, *epochs, sagnn.ModelConfig{LR: 0.01, Seed: 5},
		sagnn.SamplingConfig{Fanout: 5, BatchSize: 256})
	check(err)
	mbWall := time.Since(t0)

	fmt.Println("epoch     full-batch loss    mini-batch loss")
	for e := 0; e < *epochs; e += 6 {
		fmt.Printf("%5d %18.4f %18.4f\n", e, full.History[e].Loss, mb.EpochLoss[e])
	}

	fmt.Printf("\nfull-batch : %d epochs in %v (exact gradients, deterministic), test acc %.3f\n",
		*epochs, fullWall.Round(time.Millisecond), full.TestAcc)
	fmt.Printf("mini-batch : %d epochs in %v (sampled, fanout 5), test acc %.3f\n",
		*epochs, mbWall.Round(time.Millisecond), mb.TestAcc)
	fmt.Println("\nFull-batch epochs are a few large SpMMs — exactly the operation whose")
	fmt.Println("communication the paper optimizes; mini-batch replaces them with many")
	fmt.Println("small irregular gathers that resist collective communication.")
}
