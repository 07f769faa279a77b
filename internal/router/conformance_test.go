package router

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"sagnn"
	"sagnn/internal/gen"
	"sagnn/internal/retry"
	"sagnn/internal/serve"
)

// The conformance fixture: a 120-vertex SBM dataset and two differently
// trained models (B is the hot-swap candidate). Built once — training is
// the expensive step.
var (
	fleetOnce sync.Once
	fleetDS   *sagnn.Dataset
	fleetA    *sagnn.Model
	fleetB    *sagnn.Model
)

func fleetProblem(t testing.TB) (*sagnn.Dataset, *sagnn.Model, *sagnn.Model) {
	t.Helper()
	fleetOnce.Do(func() {
		g, comms := gen.SBM(120, 3, 8, 2, 11)
		rng := rand.New(rand.NewSource(12))
		feats := gen.Features(rng, comms, 3, 10, 0.4)
		train, val, test := gen.Splits(rng, 120, 0.3, 0.2)
		fleetDS = &sagnn.Dataset{Name: "router-test", G: g, Features: feats, Labels: comms,
			Classes: 3, Train: train, Val: val, Test: test}
		resA, err := sagnn.RunSerial(fleetDS, 2, sagnn.ModelConfig{Hidden: 8, Seed: 3})
		if err != nil {
			panic(err)
		}
		resB, err := sagnn.RunSerial(fleetDS, 10, sagnn.ModelConfig{Hidden: 8, Seed: 4})
		if err != nil {
			panic(err)
		}
		fleetA, fleetB = resA.Model, resB.Model
	})
	return fleetDS, fleetA, fleetB
}

// newServeFleet boots k real serve.Server replicas over the fixture
// dataset/model and fronts them with a router. The Kill hook closes the
// replica's server, as cmd/serve wires it.
func newServeFleet(t testing.TB, k int, scfg serve.Config, mutate func(cfg *Config)) ([]*serve.Server, *Router) {
	t.Helper()
	ds, modelA, _ := fleetProblem(t)
	servers := make([]*serve.Server, k)
	handlers := make([]http.Handler, k)
	for i := range servers {
		srv, err := serve.New(ds, modelA.Clone(), scfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers[i] = srv
		handlers[i] = srv.Handler()
	}
	cfg := Config{
		HealthInterval: 20 * time.Millisecond,
		Kill:           func(i int) error { servers[i].Close(); return nil },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(handlers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return servers, rt
}

// conformanceBatches are the request vertex sets the fleet tests replay
// over the 120-vertex fixture: scattered, interleaved, contiguous,
// singleton and unordered shapes.
var conformanceBatches = [][]int{
	{0, 41, 87},
	{119, 3, 64, 65, 2},
	{10, 11, 12, 13},
	{7},
	{5, 100, 6, 50, 99},
}

// TestRoutedBitIdenticalToSingleServer is the acceptance pin: the routed
// fleet's /predict replies must equal a single un-routed serve.Server's
// over the same model, status and body byte for byte.
func TestRoutedBitIdenticalToSingleServer(t *testing.T) {
	ds, modelA, _ := fleetProblem(t)
	single, err := serve.New(ds, modelA.Clone(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	_, rt := newServeFleet(t, 3, serve.Config{}, nil)

	for _, verts := range conformanceBatches {
		body, _ := json.Marshal(serve.PredictRequest{Vertices: verts})
		routed, ref := postRaw(rt.Handler(), body), postRaw(single.Handler(), body)
		if routed.Code != http.StatusOK || ref.Code != http.StatusOK {
			t.Fatalf("status routed %d, single %d for %v", routed.Code, ref.Code, verts)
		}
		if !bytes.Equal(routed.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("routed reply diverges from single server for %v:\nrouted: %s\nsingle: %s", verts, routed.Body, ref.Body)
		}
	}
	// Bodies past serve.MaxPredictBody: a request that ends inside the
	// bound (200) and one the bound cuts off (400).
	pad := bytes.Repeat([]byte(" "), 2*serve.MaxPredictBody)
	for want, head := range map[int]string{http.StatusOK: `{"vertices":[1]}`, http.StatusBadRequest: `{"vertices":[1`} {
		body := append([]byte(head), pad...)
		routed, ref := postRaw(rt.Handler(), body), postRaw(single.Handler(), body)
		if ref.Code != want || routed.Code != want || !bytes.Equal(routed.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("oversized %s…: routed %d %s, single %d %s, want %d", head, routed.Code, routed.Body, ref.Code, ref.Body, want)
		}
	}
}

// TestRoutedRequestAllocFlat pins the router's body read: a routed
// /predict costs as many allocations at 22 bytes as at 4 KB and 20 KB of
// the same request padded with JSON whitespace, because the router reads
// the body into the serving tiers' pooled buffers rather than into a slice
// grown to its size.
func TestRoutedRequestAllocFlat(t *testing.T) {
	_, rt := newServeFleet(t, 2, serve.Config{}, func(cfg *Config) {
		cfg.HealthInterval = time.Hour // no probe may allocate in between
	})
	h := rt.Handler()
	const doc = `{"vertices":[0,41,87]}`
	var bodies [][]byte
	for _, size := range []int{len(doc), 4 << 10, 20 << 10} {
		bodies = append(bodies, append([]byte(doc), bytes.Repeat([]byte(" "), size-len(doc))...))
	}
	want := postRaw(h, bodies[0])
	if want.Code != http.StatusOK {
		t.Fatalf("status %d: %s", want.Code, want.Body)
	}
	// Grow every buffer the free list can hold to the largest body first.
	for i := 0; i < 64; i++ {
		postRaw(h, bodies[len(bodies)-1])
	}
	counts := make([]float64, len(bodies))
	for i, body := range bodies {
		counts[i] = testing.AllocsPerRun(50, func() {
			if got := postRaw(h, body); got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%d-byte body: status %d: %s", len(body), got.Code, got.Body)
			}
		})
	}
	t.Logf("allocations at 22 B, 4 KB and 20 KB: %v", counts)
	for i := range counts {
		if counts[i] != counts[0] {
			t.Fatalf("a routed request allocates %v times at 22 B, 4 KB and 20 KB, want one count", counts)
		}
	}
}

// tryPredictVia is predictVia without the testing.T — safe to call from
// worker goroutines, where t.Fatal is off limits.
func tryPredictVia(rt *Router, vertices []int) (int, serve.PredictResponse, error) {
	body, _ := json.Marshal(serve.PredictRequest{Vertices: vertices})
	w := postRaw(rt.Handler(), body)
	var pr serve.PredictResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
			return w.Code, pr, err
		}
	}
	return w.Code, pr, nil
}

// referenceProbs computes the full-batch probability table and class vector
// for a model — the ground truth each served generation must match.
func referenceProbs(t testing.TB, ds *sagnn.Dataset, m *sagnn.Model) ([][]float64, []int) {
	t.Helper()
	probs, err := m.Probabilities(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := m.Predict(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return probs, classes
}

// TestRollingSwapUnderLoadNeverMixesGenerations hammers the fleet with
// requests while a rolling hot-swap runs, and checks every
// single 200 against the full-batch table of the generation it reports:
// responses are generation-1 exact or generation-2 exact, never a blend.
func TestRollingSwapUnderLoadNeverMixesGenerations(t *testing.T) {
	ds, modelA, modelB := fleetProblem(t)
	_, rt := newServeFleet(t, 3, serve.Config{}, nil)
	probsA, classesA := referenceProbs(t, ds, modelA)
	probsB, classesB := referenceProbs(t, ds, modelB)
	batches := conformanceBatches

	type mismatch struct{ msg string }
	var mu sync.Mutex
	var problems []mismatch
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				verts := batches[(i+w)%len(batches)]
				code, pr, err := tryPredictVia(rt, verts)
				if err != nil {
					mu.Lock()
					problems = append(problems, mismatch{msg: "undecodable 200: " + err.Error()})
					mu.Unlock()
					continue
				}
				if code != http.StatusOK {
					continue // shed under load is allowed; correctness is about 200s
				}
				probs, classes := probsA, classesA
				switch pr.Generation {
				case 1:
				case 2:
					probs, classes = probsB, classesB
				default:
					mu.Lock()
					problems = append(problems, mismatch{msg: "impossible generation"})
					mu.Unlock()
					continue
				}
				for j, v := range verts {
					if pr.Classes[j] != classes[v] || !reflect.DeepEqual(pr.Probs[j], probs[v]) {
						mu.Lock()
						problems = append(problems, mismatch{msg: "row does not match its reported generation"})
						mu.Unlock()
					}
				}
			}
		}(w)
	}

	// Let traffic flow, then roll the fleet to model B.
	waitFor(t, time.Second, func() bool { return rt.Metrics(context.Background()).Requests > 20 })
	blob, err := modelB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/swap", bytes.NewReader(blob)))
	if w.Code != http.StatusOK {
		t.Fatalf("swap status %d: %s", w.Code, w.Body)
	}
	var sw swapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Generation != 2 {
		t.Fatalf("fleet generation %d after swap, want 2", sw.Generation)
	}
	close(stop)
	wg.Wait()
	if len(problems) > 0 {
		t.Fatalf("%d generation-consistency violations, first: %s", len(problems), problems[0].msg)
	}

	// After the roll every response is generation 2, bit-exact on model B.
	resp, pr := predictVia(t, rt, batches[0])
	if resp.StatusCode != http.StatusOK || pr.Generation != 2 {
		t.Fatalf("post-swap: status %d generation %d, want 200 gen 2", resp.StatusCode, pr.Generation)
	}
	for j, v := range batches[0] {
		if !reflect.DeepEqual(pr.Probs[j], probsB[v]) {
			t.Fatalf("post-swap vertex %d not on model B", v)
		}
	}
}

// TestFleetServesBitExactWithReplicaKilled kills one replica through the
// admin chaos hook and checks the fleet still answers every batch
// bit-identically to the reference model.
func TestFleetServesBitExactWithReplicaKilled(t *testing.T) {
	ds, modelA, _ := fleetProblem(t)
	_, rt := newServeFleet(t, 3, serve.Config{}, nil)
	probsA, classesA := referenceProbs(t, ds, modelA)

	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/kill?replica=1", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("kill status %d: %s", w.Code, w.Body)
	}
	waitFor(t, time.Second, func() bool { return !rt.replicas[1].healthy.Load() })

	for _, verts := range conformanceBatches {
		resp, pr := predictVia(t, rt, verts)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %v with replica-1 dead", resp.StatusCode, verts)
		}
		for j, v := range verts {
			if pr.Classes[j] != classesA[v] || !reflect.DeepEqual(pr.Probs[j], probsA[v]) {
				t.Fatalf("vertex %d diverges with replica-1 dead", v)
			}
		}
	}
	// The killed replica must stay out: no readmission for administrative
	// kills even though the health loop keeps probing.
	_ = retry.Sleep(context.Background(), 150*time.Millisecond, 1)
	if rt.replicas[1].healthy.Load() {
		t.Fatal("killed replica was readmitted")
	}
}
