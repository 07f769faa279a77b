// Command datagen materialises a dataset preset to disk in portable text
// formats: an edge list, a MatrixMarket adjacency file, a feature matrix,
// and a label file — so the generated stand-ins can be inspected or
// consumed by external tooling.
//
// Usage:
//
//	datagen -dataset protein-sim -scalediv 8 -out /tmp/protein
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sagnn"
	"sagnn/internal/graphio"
)

func main() {
	dataset := flag.String("dataset", "amazon-sim", "dataset preset")
	scaleDiv := flag.Int("scalediv", 8, "dataset scale divisor (1 = full size)")
	out := flag.String("out", "", "output directory (required)")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(2)
	}
	ds, err := sagnn.LoadDataset(sagnn.Preset(*dataset), *seed, *scaleDiv)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	write := func(name string, fn func(f *os.File) error) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	write("edges.txt", func(f *os.File) error { return graphio.WriteEdgeList(f, ds.G) })
	write("adjacency.mtx", func(f *os.File) error { return graphio.WriteMatrixMarket(f, ds.G.Adj) })
	write("features.txt", func(f *os.File) error { return graphio.WriteFeatures(f, ds.Features) })
	write("labels.txt", func(f *os.File) error { return graphio.WriteLabels(f, ds.Labels) })

	fmt.Printf("\n%s: %d vertices, %d edges, f=%d, %d classes\n",
		ds.Name, ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim(), ds.Classes)
}
