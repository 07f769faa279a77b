package sagnn

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sagnn/internal/dense"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
	"sagnn/internal/graph"
)

// subsetTestDataset builds a Dataset around an arbitrary graph with
// label-correlated features, the substrate for the subset conformance runs.
func subsetTestDataset(g *graph.Graph, f, classes int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	labels := gen.RandomLabels(rng, n, classes)
	feats := gen.Features(rng, labels, classes, f, 0.5)
	train, val, test := gen.Splits(rng, n, 0.2, 0.2)
	return &Dataset{Name: "subset-test", G: g, Features: feats, Labels: labels,
		Classes: classes, Train: train, Val: val, Test: test}
}

// starG returns a hub-and-spokes graph — the extreme where one vertex's
// 1-hop receptive field is the whole graph.
func starG(n int) *graph.Graph {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return graph.FromEdges(n, edges).Symmetrize()
}

// subsetConformanceGraphs mirrors the engine-conformance matrix on the
// serving side: ER (uniform), SBM (clustered), star (hub extreme).
func subsetConformanceGraphs(n int) map[string]*graph.Graph {
	sbm, _ := gen.SBM(n, 4, 8, 2, 17)
	return map[string]*graph.Graph{
		"er":   gen.ErdosRenyi(n, 6, 13),
		"sbm":  sbm,
		"star": starG(n),
	}
}

// checkRowsMatchFull fails unless every requested vertex's subset row and
// class equal its row of the full-batch table and that row's argmax, bit
// for bit.
func checkRowsMatchFull(t *testing.T, what string, vertices []int, rows [][]float64, classes []int, full [][]float64) {
	t.Helper()
	for i, v := range vertices {
		for j, p := range rows[i] {
			if p != full[v][j] {
				t.Fatalf("%s vertex %d class %d: subset %v != full %v", what, v, j, p, full[v][j])
			}
		}
		if want := dense.ArgmaxRow(full[v]); classes[i] != want {
			t.Fatalf("%s vertex %d: class %d != %d", what, v, classes[i], want)
		}
	}
}

// TestPredictSubsetBitIdenticalToFullBatch is the serving conformance
// matrix: across ER/SBM/star graphs and model depths L ∈ {1,2,3},
// Probabilities and Predict over a request's receptive field must equal the
// nil request's rows — the full-Â branch of the same forward, which
// FuzzSubsetForward holds to the serial reference — bit for bit, no
// tolerance, on single targets and random subsets in random order.
func TestPredictSubsetBitIdenticalToFullBatch(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(4))
	for name, g := range subsetConformanceGraphs(n) {
		for layers := 1; layers <= 3; layers++ {
			ds := subsetTestDataset(g, 10, 5, 23)
			dims := gcn.LayerDims(ds.FeatureDim(), 8, ds.Classes, layers)
			model := &Model{m: gcn.NewModel(31, dims)}

			full, err := model.Probabilities(ds, nil)
			if err != nil {
				t.Fatal(err)
			}
			fullClasses, err := model.Predict(ds, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v, class := range fullClasses {
				if want := dense.ArgmaxRow(full[v]); class != want {
					t.Fatalf("%s vertex %d: full-batch class %d != %d", name, v, class, want)
				}
			}

			for _, vertices := range [][]int{
				{0},
				{n - 1},
				{7, 3, 55}, // unsorted on purpose: results align to request order
				rng.Perm(n)[: 1+rng.Intn(n-1) : n],
			} {
				rows, err := model.Probabilities(ds, vertices)
				if err != nil {
					t.Fatalf("%s L=%d: %v", name, layers, err)
				}
				classes, err := model.Predict(ds, vertices)
				if err != nil {
					t.Fatal(err)
				}
				checkRowsMatchFull(t, name, vertices, rows, classes, full)
			}
		}
	}
}

// TestPredictSubsetAfterTraining runs the same bit-identity check on a
// model that actually trained, closing the loop from session to serving.
func TestPredictSubsetAfterTraining(t *testing.T) {
	g, comms := gen.SBM(128, 4, 10, 2, 5)
	ds := subsetTestDataset(g, 12, 4, 9)
	copy(ds.Labels, comms)
	res, err := RunSerial(ds, 5, ModelConfig{Hidden: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := res.Model.Probabilities(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	vertices := []int{0, 11, 64, 127}
	rows, err := res.Model.Probabilities(ds, vertices)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := res.Model.Predict(ds, vertices)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsMatchFull(t, "trained", vertices, rows, classes, full)
}

// TestSubsetValidation pins the one request contract of the two
// prediction methods: empty, duplicate, negative and too-large vertex sets
// fail with ErrInvalidVertices (so servers can map them to HTTP 400), never
// panic, and nil selects every vertex.
func TestSubsetValidation(t *testing.T) {
	ds := subsetTestDataset(gen.ErdosRenyi(32, 4, 1), 6, 3, 2)
	model := &Model{m: gcn.NewModel(1, gcn.LayerDims(6, 8, 3, 2))}
	methods := map[string]func(vertices []int) (int, error){
		"Predict": func(vertices []int) (int, error) {
			classes, err := model.Predict(ds, vertices)
			return len(classes), err
		},
		"Probabilities": func(vertices []int) (int, error) {
			rows, err := model.Probabilities(ds, vertices)
			return len(rows), err
		},
	}
	for name, call := range methods {
		for _, tc := range []struct {
			what     string
			vertices []int
		}{
			{"empty", []int{}},
			{"duplicate", []int{3, 3}},
			{"duplicate later", []int{1, 2, 1}},
			{"negative", []int{-1}},
			{"too large", []int{32}},
			{"far too large", []int{0, 999}},
		} {
			if _, err := call(tc.vertices); !errors.Is(err, ErrInvalidVertices) {
				t.Fatalf("%s %s %v: got %v, want ErrInvalidVertices", name, tc.what, tc.vertices, err)
			}
		}
		if rows, err := call(nil); err != nil || rows != ds.G.NumVertices() {
			t.Fatalf("%s nil: %d rows, %v; want every vertex", name, rows, err)
		}
	}
	if err := ValidateVertices(32, []int{0, 31}); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	big := make([]int, 64)
	for i := range big {
		big[i] = i
	}
	big[63] = 0 // duplicate beyond the quadratic-scan threshold
	if err := ValidateVertices(64, big); !errors.Is(err, ErrInvalidVertices) {
		t.Fatalf("large duplicate set: got %v, want ErrInvalidVertices", err)
	}
	// Up to sortedCheckMax vertices a valid set is checked allocation-free;
	// past it the sorted copy moves to the heap.
	wide := make([]int, sortedCheckMax+1)
	for i := range wide {
		wide[i] = len(wide) - 1 - i
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := ValidateVertices(len(wide), wide[:sortedCheckMax]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("checking %d distinct vertices allocates %v times, want 0", sortedCheckMax, allocs)
	}
	if err := ValidateVertices(len(wide), wide); err != nil {
		t.Fatalf("valid set of %d rejected: %v", len(wide), err)
	}
	wide[sortedCheckMax] = wide[7]
	if err := ValidateVertices(len(wide), wide); !errors.Is(err, ErrInvalidVertices) {
		t.Fatalf("duplicate past sortedCheckMax: got %v, want ErrInvalidVertices", err)
	}
	if err := ValidateVertices(len(wide), wide[1:]); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("duplicate vertex %d", wide[7])) {
		t.Fatalf("duplicate within sortedCheckMax: got %v, want vertex %d named", err, wide[7])
	}
}

// TestLoadServableModel pins the hot-swap artifact sniffing: both a bare
// model record and a checkpoint load into a servable model.
func TestLoadServableModel(t *testing.T) {
	model := &Model{m: gcn.NewModel(6, gcn.LayerDims(8, 8, 4, 2))}
	mb, err := model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := LoadServableModel(mb)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != -1 {
		t.Fatalf("bare model epoch %d, want -1", epoch)
	}
	if got.m.MaxWeightDiff(model.m) != 0 {
		t.Fatal("model round-trip changed weights")
	}
	ck := &Checkpoint{epoch: 7, model: model.m.Clone()}
	cb, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err = LoadServableModel(cb)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("checkpoint epoch %d, want 7", epoch)
	}
	if got.m.MaxWeightDiff(model.m) != 0 {
		t.Fatal("checkpoint round-trip changed weights")
	}
	if _, _, err := LoadServableModel([]byte{0x42}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// sha256Hex is the artifact fingerprint the golden tests compare.
func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestArtifactBytesGolden pins the serialised model and checkpoint of a
// fixed seed to the bytes recorded while the format still carried a second
// layer type: the leading variant byte stays 0, and nothing after it moved.
func TestArtifactBytesGolden(t *testing.T) {
	dims := gcn.LayerDims(8, 8, 4, 2)
	for _, tc := range []struct {
		name string
		art  interface{ MarshalBinary() ([]byte, error) }
		want string
	}{
		{"model", &Model{m: gcn.NewModel(6, dims)}, "a2611f21831a089c2f3b41f28f2b2422930a7748e3a632bd7d1e5598f97bfd7b"},
		{"checkpoint", &Checkpoint{epoch: 7, model: gcn.NewModel(6, dims)}, "d869f575badaa5f3ef79e000b46bf7619aa37f42371a10ab171d3dcbbe5f5bbd"},
	} {
		b, err := tc.art.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(b); got != tc.want {
			t.Errorf("%s bytes hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestLoadRejectsSAGEArtifacts: a model or checkpoint written with variant
// byte 1 — the GraphSAGE-style concat layer this package no longer has —
// is an error from every decoder, not a panic and not a misread GCN. The
// artifacts are rebuilt byte for byte as such a build wrote them (weights
// with 2f input rows, drawn from the seed in layer order), which the model
// hashes confirm. A one-layer one has a chain that composes, so only the
// variant byte rejects it.
func TestLoadRejectsSAGEArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape [][2]int
		hash  string
	}{
		{"2-layer", [][2]int{{16, 8}, {16, 4}}, "b5ef8334a93512a7f23ec5ded082bcb536f93b86525a50a929525d7e810ae4d5"},
		{"1-layer", [][2]int{{16, 4}}, "54c61397dd252e59424eb70abfe243314e671e4bf4c156d58dfabd1e5f9149ae"},
	} {
		rng := rand.New(rand.NewSource(6))
		sage := &gcn.Model{}
		for _, s := range tc.shape {
			sage.Weights = append(sage.Weights, dense.NewGlorot(rng, s[0], s[1]))
		}
		rec, err := sage.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		model := append([]byte{1}, rec...)
		if got := sha256Hex(model); got != tc.hash {
			t.Fatalf("%s: rebuilt SAGE model hash %s, want %s", tc.name, got, tc.hash)
		}
		ck, err := (&Checkpoint{epoch: 7, model: sage}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		ck[16] = 1 // the checkpointed model's variant byte
		if _, err := LoadModel(model); err == nil {
			t.Errorf("%s: LoadModel accepted a SAGE model", tc.name)
		}
		if _, err := LoadCheckpoint(ck); err == nil {
			t.Errorf("%s: LoadCheckpoint accepted a SAGE checkpoint", tc.name)
		}
		for _, data := range [][]byte{model, ck} {
			if _, _, err := LoadServableModel(data); err == nil {
				t.Errorf("%s: LoadServableModel accepted a %d-byte SAGE artifact", tc.name, len(data))
			}
		}
	}
}
