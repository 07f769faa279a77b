package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sagnn"
	"sagnn/internal/dense"
	"sagnn/internal/gcn"
	"sagnn/internal/gen"
)

// testProblem builds a small SBM dataset and two differently-trained models
// (the second is the hot-swap candidate).
func testProblem(t testing.TB) (*sagnn.Dataset, *sagnn.Model, *sagnn.Model) {
	t.Helper()
	g, comms := gen.SBM(96, 4, 8, 2, 11)
	rng := rand.New(rand.NewSource(12))
	feats := gen.Features(rng, comms, 4, 10, 0.4)
	train, val, test := gen.Splits(rng, 96, 0.3, 0.2)
	ds := &sagnn.Dataset{Name: "serve-test", G: g, Features: feats, Labels: comms,
		Classes: 4, Train: train, Val: val, Test: test}
	resA, err := sagnn.RunSerial(ds, 2, sagnn.ModelConfig{Hidden: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sagnn.RunSerial(ds, 10, sagnn.ModelConfig{Hidden: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ds, resA.Model, resB.Model
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *sagnn.Dataset, *sagnn.Model, *sagnn.Model) {
	t.Helper()
	ds, modelA, modelB := testProblem(t)
	srv, err := New(ds, modelA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs, ds, modelA, modelB
}

// tryPredict POSTs a /predict request; safe to call from any goroutine.
func tryPredict(url string, vertices []int) (int, PredictResponse, error) {
	body, _ := json.Marshal(PredictRequest{Vertices: vertices})
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, PredictResponse{}, err
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return resp.StatusCode, pr, err
		}
	}
	return resp.StatusCode, pr, nil
}

func postPredict(t testing.TB, url string, vertices []int) (*http.Response, PredictResponse) {
	t.Helper()
	body, _ := json.Marshal(PredictRequest{Vertices: vertices})
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

// TestPredictEndpointMatchesFullBatch: served classes and probabilities must
// equal the model's full-batch answers bit for bit, and each probability
// row must be a distribution.
func TestPredictEndpointMatchesFullBatch(t *testing.T) {
	srv, hs, ds, modelA, _ := newTestServer(t, Config{})
	vertices := []int{3, 90, 17, 0}
	full, err := modelA.Predict(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullProbs, err := modelA.Probabilities(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // round 2 reads the same table again
		resp, pr := postPredict(t, hs.URL, vertices)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if pr.Generation != 1 {
			t.Fatalf("round %d: generation %d, want 1", round, pr.Generation)
		}
		for i, v := range vertices {
			if pr.Classes[i] != full[v] {
				t.Fatalf("round %d vertex %d: class %d, full-batch %d", round, v, pr.Classes[i], full[v])
			}
			sum := 0.0
			for j, p := range pr.Probs[i] {
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("vertex %d: invalid probability %v", v, p)
				}
				if p != fullProbs[v][j] {
					t.Fatalf("vertex %d class %d: served %v, full-batch %v", v, j, p, fullProbs[v][j])
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("vertex %d: probabilities sum to %v", v, sum)
			}
		}
	}
	// Every vertex, through the Go API: the served row is the full-batch row
	// bit for bit, and the class is its argmax.
	classes, probs := make([]int, 1), make([][]float64, 1)
	for v := range fullProbs {
		if _, err := srv.PredictInto(context.Background(), []int{v}, classes, probs); err != nil {
			t.Fatal(err)
		}
		for j, p := range probs[0] {
			if math.Float64bits(p) != math.Float64bits(fullProbs[v][j]) {
				t.Fatalf("vertex %d class %d: served %v, full-batch %v", v, j, p, fullProbs[v][j])
			}
		}
		if classes[0] != full[v] {
			t.Fatalf("vertex %d: class %d, full-batch %d", v, classes[0], full[v])
		}
	}
}

// TestPredictValidation pins the HTTP 400 contract for malformed requests —
// out-of-range ids, duplicates, empty sets, oversized requests, and broken
// JSON never panic and never 500.
func TestPredictValidation(t *testing.T) {
	_, hs, _, _, _ := newTestServer(t, Config{MaxRequestVertices: 8})
	for _, tc := range []struct {
		name     string
		vertices []int
	}{
		{"negative", []int{-1}},
		{"out of range", []int{96}},
		{"far out of range", []int{3, 99999}},
		{"duplicate", []int{5, 5}},
		{"duplicate later", []int{1, 2, 3, 1}},
		{"empty", []int{}},
		{"nil", nil},
		{"too many", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		resp, _ := postPredict(t, hs.URL, tc.vertices)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/predict", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON: status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(hs.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d, want 405", getResp.StatusCode)
	}
}

// TestHotSwap swaps a second model in through the admin endpoint and pins
// the whole contract: generation bump, the same vertices answered from the
// new model's table, and rejection of garbage and incompatible payloads.
func TestHotSwap(t *testing.T) {
	srv, hs, ds, modelA, modelB := newTestServer(t, Config{})
	vertices := []int{1, 2, 60}
	fullA, err := modelA.Predict(ds, vertices)
	if err != nil {
		t.Fatal(err)
	}
	fullB, err := modelB.Predict(ds, vertices)
	if err != nil {
		t.Fatal(err)
	}
	if _, pr := postPredict(t, hs.URL, vertices); pr.Classes[0] != fullA[0] {
		t.Fatalf("pre-swap class %d, want %d", pr.Classes[0], fullA[0])
	}

	blob, err := modelB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/admin/swap", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var swapReply struct {
		Generation uint64 `json:"generation"`
		Epoch      int    `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&swapReply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || swapReply.Generation != 2 {
		t.Fatalf("swap: status %d generation %d", resp.StatusCode, swapReply.Generation)
	}
	if srv.Generation() != 2 {
		t.Fatalf("server generation %d, want 2", srv.Generation())
	}

	// The same vertices — answered under generation 1 — must now come from
	// model B, and the response must carry the new generation.
	respB, pr := postPredict(t, hs.URL, vertices)
	if respB.StatusCode != http.StatusOK || pr.Generation != 2 {
		t.Fatalf("post-swap: status %d generation %d", respB.StatusCode, pr.Generation)
	}
	for i := range vertices {
		if pr.Classes[i] != fullB[i] {
			t.Fatalf("post-swap vertex %d: class %d, model B says %d", vertices[i], pr.Classes[i], fullB[i])
		}
	}

	// Garbage and oversized payloads are client errors, not crashes.
	garbage, err := http.Post(hs.URL+"/admin/swap", "application/octet-stream", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	garbage.Body.Close()
	if garbage.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage swap: status %d, want 400", garbage.StatusCode)
	}
	if srv.Generation() != 2 {
		t.Fatalf("failed swap changed generation to %d", srv.Generation())
	}
}

// TestSwapRejectsIncompatibleModel: a model with the wrong feature width
// must never enter the serving path.
func TestSwapRejectsIncompatibleModel(t *testing.T) {
	srv, _, _, _, _ := newTestServer(t, Config{})
	other := sagnn.MustLoadDataset(sagnn.ProteinSim, 1, 512) // f=300 ≠ 10
	res, err := sagnn.RunSerial(other, 1, sagnn.ModelConfig{Hidden: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Swap(res.Model, -1); err == nil {
		t.Fatal("incompatible model accepted")
	}
	if srv.Generation() != 1 {
		t.Fatalf("generation %d after rejected swap", srv.Generation())
	}
}

// modelBlob encodes a bare model artifact (the sagnn.Model wire format: the
// GCN variant flag byte, then the gcn model record) with all-zero weights of
// the given layer shapes — the way to build artifacts no trainer would
// produce.
func modelBlob(t *testing.T, shapes ...[2]int) []byte {
	m := &gcn.Model{}
	for _, sh := range shapes {
		m.Weights = append(m.Weights, dense.New(sh[0], sh[1]))
	}
	rec, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{0}, rec...)
}

// TestSwapRejectsNonComposingModel: an artifact whose first layer fits the
// dataset and whose last layer scores the right classes, but whose middle
// layer does not consume what the first produces, must be a 400 at
// /admin/swap — not installed to fail every /predict afterwards.
func TestSwapRejectsNonComposingModel(t *testing.T) {
	srv, hs, ds, _, _ := newTestServer(t, Config{})
	f, c := ds.FeatureDim(), ds.Classes
	for _, tc := range []struct {
		name       string
		blob       []byte
		status     int
		generation uint64
	}{
		{"broken chain", modelBlob(t, [2]int{f, 16}, [2]int{7, 16}, [2]int{16, c}), http.StatusBadRequest, 1},
		// The composing twin shows only the chain decides the outcome.
		{"composing twin", modelBlob(t, [2]int{f, 16}, [2]int{16, 16}, [2]int{16, c}), http.StatusOK, 2},
	} {
		resp, err := http.Post(hs.URL+"/admin/swap", "application/octet-stream", bytes.NewReader(tc.blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: swap status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if srv.Generation() != tc.generation {
			t.Fatalf("%s: generation %d, want %d", tc.name, srv.Generation(), tc.generation)
		}
		if resp, pr := postPredict(t, hs.URL, []int{5, 40}); resp.StatusCode != http.StatusOK || pr.Generation != tc.generation {
			t.Fatalf("%s: /predict after swap: status %d generation %d", tc.name, resp.StatusCode, pr.Generation)
		}
	}
}

// TestSwapRejectsOverflowingModel: an artifact that loads and composes but
// whose forward overflows to NaN probabilities must be a 400 at
// /admin/swap, not installed to answer 200s with an empty body.
func TestSwapRejectsOverflowingModel(t *testing.T) {
	srv, hs, ds, _, _ := newTestServer(t, Config{})
	m := &gcn.Model{Weights: []*dense.Matrix{dense.New(ds.FeatureDim(), 16), dense.New(16, ds.Classes)}}
	for _, w := range m.Weights {
		for i := range w.Data {
			w.Data[i] = 1e300
		}
	}
	rec, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/admin/swap", "application/octet-stream", bytes.NewReader(append([]byte{0}, rec...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || srv.Generation() != 1 {
		t.Fatalf("overflowing model: swap status %d, generation %d; want 400 at 1", resp.StatusCode, srv.Generation())
	}
}

// TestCheckpointSwap feeds the session checkpoint format through the swap
// path, closing the train→checkpoint→serve loop.
func TestCheckpointSwap(t *testing.T) {
	srv, _, ds, _, _ := newTestServer(t, Config{})
	res, err := sagnn.RunSerial(ds, 3, sagnn.ModelConfig{Hidden: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through a session snapshot: train → Snapshot → bytes.
	cluster, err := sagnn.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, sagnn.DistOpts{Algorithm: sagnn.SparsityAware1D})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(sagnn.ModelConfig{Hidden: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gen, epoch, err := srv.SwapBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || epoch != 3 {
		t.Fatalf("checkpoint swap: generation %d epoch %d, want 2/3", gen, epoch)
	}
	_ = res
}

// TestGracefulShutdown: Close answers nothing new, health reports
// unavailability, and predictions fail with ErrClosed → 503.
func TestGracefulShutdown(t *testing.T) {
	srv, hs, _, _, _ := newTestServer(t, Config{})
	if _, pr := postPredict(t, hs.URL, []int{1}); len(pr.Classes) != 1 {
		t.Fatal("warm-up request failed")
	}
	srv.Close()
	srv.Close() // idempotent
	resp, _ := postPredict(t, hs.URL, []int{1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close predict: status %d, want 503", resp.StatusCode)
	}
	health, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close healthz: status %d, want 503", health.StatusCode)
	}
	classes := make([]int, 1)
	probs := make([][]float64, 1)
	if _, err := srv.PredictInto(context.Background(), []int{1}, classes, probs); !errors.Is(err, ErrClosed) {
		t.Fatalf("PredictInto after Close: %v, want ErrClosed", err)
	}
}

// TestMetricsEndpoint drives concurrent traffic and checks the snapshot:
// counts, latency samples, generation, and JSON shape.
func TestMetricsEndpoint(t *testing.T) {
	_, hs, _, _, _ := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				if code, _, err := tryPredict(hs.URL, []int{(c + r) % 10, 50 + c}); err != nil || code != http.StatusOK {
					t.Errorf("client %d: code %d err %v", c, code, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	postPredict(t, hs.URL, []int{-5}) // one failure for the failed counter

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"cache", "batch", "Cache", "Batch"} {
		if _, ok := raw[gone]; ok {
			t.Fatalf("/metrics carries a %q block", gone)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 32 {
		t.Fatalf("requests %d, want 32", snap.Requests)
	}
	if snap.Failed == 0 {
		t.Fatal("failed counter did not move")
	}
	if snap.Vertices != 64 {
		t.Fatalf("vertices %d, want 64", snap.Vertices)
	}
	if snap.Latency.Samples != int(snap.Requests) {
		t.Fatalf("latency samples %d for %d requests", snap.Latency.Samples, snap.Requests)
	}
	if snap.QPS <= 0 || snap.Model.Generation != 1 {
		t.Fatalf("qps %v generation %d", snap.QPS, snap.Model.Generation)
	}
}

// TestPredictAllocFlat pins the serving path: a Go-level PredictInto
// allocates nothing, also on vertices no request has named before — every
// answer is already in the generation's table.
func TestPredictAllocFlat(t *testing.T) {
	srv, _, ds, _, _ := newTestServer(t, Config{})
	vertices := make([]int, 3)
	classes := make([]int, len(vertices))
	probs := make([][]float64, len(vertices))
	ctx := context.Background()
	next := 0
	// AllocsPerRun calls once to warm up, then runs times: 1 + 30 calls of 3
	// fresh vertices each fit the 96-vertex graph.
	const runs = 30
	if (runs+1)*len(vertices) > ds.G.NumVertices() {
		t.Fatalf("%d runs need %d vertices", runs, (runs+1)*len(vertices))
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		for i := range vertices {
			vertices[i] = next
			next++
		}
		if _, err := srv.PredictInto(ctx, vertices, classes, probs); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("PredictInto on unseen vertices allocates %v times, want 0", allocs)
	}
}

// TestConcurrentPredictAndSwap hammers predictions while swapping models,
// under the race detector in CI: every response must be internally
// consistent with the generation it reports.
func TestConcurrentPredictAndSwap(t *testing.T) {
	srv, hs, ds, modelA, modelB := newTestServer(t, Config{})
	byGen := map[uint64][]int{}
	for gen, m := range map[uint64]*sagnn.Model{1: modelA, 2: modelB} {
		full, err := m.Predict(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		byGen[gen] = full
	}
	blob, err := modelB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := (c*17 + i) % 96
				code, pr, err := tryPredict(hs.URL, []int{v})
				if err != nil || code != http.StatusOK {
					t.Errorf("status %d err %v", code, err)
					return
				}
				// Responses are generation-consistent by contract: the class
				// must match exactly the generation the response reports,
				// even while the swap is in flight.
				want, ok := byGen[pr.Generation]
				if !ok {
					t.Errorf("vertex %d: unknown generation %d", v, pr.Generation)
					return
				}
				if pr.Classes[0] != want[v] {
					t.Errorf("vertex %d: class %d does not match generation %d (want %d)",
						v, pr.Classes[0], pr.Generation, want[v])
					return
				}
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond)
	resp, err := http.Post(hs.URL+"/admin/swap", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if srv.Generation() != 2 {
		t.Fatalf("generation %d, want 2", srv.Generation())
	}
}

func TestHealthz(t *testing.T) {
	_, hs, ds, _, _ := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Vertices   int    `json:"vertices"`
		Classes    int    `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Generation != 1 || h.Vertices != ds.G.NumVertices() || h.Classes != ds.Classes {
		t.Fatalf("healthz %+v", h)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
