package sagnn_test

import (
	"context"
	"sync"
	"testing"

	"sagnn"
	"sagnn/internal/gen"
	"sagnn/internal/serve"
)

// TestInputProductSharedAcrossModels: every model that predicts on one
// dataset — clones whose first uses race each other, and a generation
// hot-swapped into a server — reads the dataset's one Â·X, built once; a
// shallow copy of the dataset shares it until its graph is replaced, and
// then builds its own.
func TestInputProductSharedAcrossModels(t *testing.T) {
	newDS := func() *sagnn.Dataset { return sagnn.GenerateCommunityDataset("share", 96, 4, 8, 2, 6, 0.5, 3) }
	res, err := sagnn.RunSerial(newDS(), 2, sagnn.ModelConfig{Hidden: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := newDS() // nothing derived yet: the clones below race to build it
	clones := []*sagnn.Model{res.Model.Clone(), res.Model.Clone(), res.Model.Clone(), res.Model.Clone()}
	var wg sync.WaitGroup
	for i, m := range clones {
		wg.Add(1)
		go func(i int, m *sagnn.Model) {
			defer wg.Done()
			if _, err := m.Predict(ds, []int{i, 40 + i}); err != nil {
				t.Error(err)
			}
		}(i, m)
	}
	wg.Wait()
	ax := ds.InputProduct()
	for i, m := range clones {
		if got := sagnn.InferenceProduct(m); got != ax {
			t.Fatalf("clone %d reads Â·X %p, the dataset holds %p", i, got, ax)
		}
	}

	srv, err := serve.New(ds, clones[0], serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	next := res.Model.Clone()
	if _, err := srv.Swap(next, -1); err != nil {
		t.Fatal(err)
	}
	vertices := []int{2, 7}
	if _, err := srv.PredictInto(context.Background(), vertices, make([]int, 2), make([][]float64, 2)); err != nil {
		t.Fatal(err)
	}
	if got := sagnn.InferenceProduct(next); got != ax {
		t.Fatalf("swapped-in generation reads Â·X %p, the dataset holds %p", got, ax)
	}

	same := *ds
	if same.InputProduct() != ax {
		t.Fatal("a shallow copy rebuilt Â·X")
	}
	other := *ds
	other.G = gen.ErdosRenyi(ds.G.NumVertices(), 4, 5)
	if other.InputProduct() == ax || other.NormalizedAdjacency() == ds.NormalizedAdjacency() {
		t.Fatal("a copy whose graph was replaced kept the old Â and Â·X")
	}
	if ds.InputProduct() != ax {
		t.Fatal("the copy's rebuild replaced the original's Â·X")
	}
}
