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
	"sagnn/internal/partition"
	"sagnn/internal/retry"
	"sagnn/internal/serve"
)

// The conformance fixture: a 120-vertex SBM dataset, two differently
// trained models (B is the hot-swap candidate), and a GVB partition into 3
// parts. Built once — training is the expensive step.
var (
	fleetOnce sync.Once
	fleetDS   *sagnn.Dataset
	fleetA    *sagnn.Model
	fleetB    *sagnn.Model
	fleetPart *partition.Partition
)

func fleetProblem(t testing.TB) (*sagnn.Dataset, *sagnn.Model, *sagnn.Model, *partition.Partition) {
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
		fleetPart = partition.GVB{}.Partition(g, 3)
	})
	return fleetDS, fleetA, fleetB, fleetPart
}

// newServeFleet boots k real serve.Server replicas over the fixture
// dataset/model and fronts them with a router. The Kill hook closes the
// replica's server, as cmd/serve wires it.
func newServeFleet(t *testing.T, k int, scfg serve.Config, mutate func(cfg *Config)) ([]*serve.Server, *Router) {
	t.Helper()
	ds, modelA, _, part := fleetProblem(t)
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
		PartOf:         part.PartOf,
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

// mixedBatches returns request vertex sets that deliberately span partition
// parts (plus single-part and singleton shapes for contrast).
func mixedBatches(part *partition.Partition, n int) [][]int {
	// One vertex from each part, in part order.
	byPart := make([][]int, 3)
	for v := 0; v < n; v++ {
		p := part.PartOf(v)
		byPart[p] = append(byPart[p], v)
	}
	return [][]int{
		{byPart[0][0], byPart[1][0], byPart[2][0]},                             // one per part
		{byPart[2][1], byPart[0][1], byPart[1][1], byPart[2][2], byPart[0][2]}, // interleaved
		byPart[1][:4],  // single part
		{byPart[0][3]}, // singleton
		{byPart[0][4], byPart[0][5], byPart[1][4], byPart[2][3], byPart[1][5]}, // lopsided
	}
}

// TestRoutedBitIdenticalToSingleServer is the acceptance pin: for
// mixed-part batches, the routed fleet's /predict responses must be
// bit-identical to a single un-routed serve.Server over the same model.
func TestRoutedBitIdenticalToSingleServer(t *testing.T) {
	ds, modelA, _, part := fleetProblem(t)
	single, err := serve.New(ds, modelA.Clone(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	_, rt := newServeFleet(t, 3, serve.Config{}, nil)

	for _, verts := range mixedBatches(part, ds.G.NumVertices()) {
		resp, routed := predictVia(t, rt, verts)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed status %d for %v", resp.StatusCode, verts)
		}
		w := httptest.NewRecorder()
		body, _ := json.Marshal(serve.PredictRequest{Vertices: verts})
		single.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("single status %d for %v", w.Code, verts)
		}
		var ref serve.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(routed, ref) {
			t.Fatalf("routed response diverges from single server for %v:\nrouted: %+v\nsingle: %+v", verts, routed, ref)
		}
	}
}

// tryPredictVia is predictVia without the testing.T — safe to call from
// worker goroutines, where t.Fatal is off limits.
func tryPredictVia(rt *Router, vertices []int) (int, serve.PredictResponse, error) {
	body, _ := json.Marshal(serve.PredictRequest{Vertices: vertices})
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
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
	pred, err := sagnn.NewPredictor(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := pred.Probabilities(nil)
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
// mixed-part requests while a rolling hot-swap runs, and checks every
// single 200 against the full-batch table of the generation it reports:
// responses are generation-1 exact or generation-2 exact, never a blend.
func TestRollingSwapUnderLoadNeverMixesGenerations(t *testing.T) {
	ds, modelA, modelB, part := fleetProblem(t)
	_, rt := newServeFleet(t, 3, serve.Config{}, nil)
	probsA, classesA := referenceProbs(t, ds, modelA)
	probsB, classesB := referenceProbs(t, ds, modelB)
	batches := mixedBatches(part, ds.G.NumVertices())

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
// admin chaos hook and checks the fleet still answers every mixed-part
// batch bit-identically to the reference model.
func TestFleetServesBitExactWithReplicaKilled(t *testing.T) {
	ds, modelA, _, part := fleetProblem(t)
	_, rt := newServeFleet(t, 3, serve.Config{}, nil)
	probsA, classesA := referenceProbs(t, ds, modelA)

	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/kill?replica=1", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("kill status %d: %s", w.Code, w.Body)
	}
	waitFor(t, time.Second, func() bool { return !rt.replicas[1].healthy.Load() })

	for _, verts := range mixedBatches(part, ds.G.NumVertices()) {
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

// TestPartitionPolicyBeatsRandomOnFleetCache is the experiment the sharded
// tier exists for: under repeated sweeps of the vertex space with
// part-sized per-replica caches, partition-aware routing concentrates each
// part on one replica (fleet cache ≈ sum of replica caches) while random
// routing makes every replica cache the same global set (fleet cache ≈ one
// replica's capacity). Every request names one vertex of each part, so
// partition routing gathers one part's receptive field per batch where
// random routing gathers the union of three. The fleet cache hit rate and
// gather fraction must show it.
func TestPartitionPolicyBeatsRandomOnFleetCache(t *testing.T) {
	ds, _, _, part := fleetProblem(t)
	// Caches big enough for one part (~40 vertices), far too small for the
	// whole vertex space ×3.
	scfg := serve.Config{BatchWindow: serve.WindowNone, CacheSize: 48}
	byPart := make([][]int, 3)
	for v := 0; v < ds.G.NumVertices(); v++ {
		byPart[part.PartOf(v)] = append(byPart[part.PartOf(v)], v)
	}
	var sweep [][]int
	for i := 0; ; i++ {
		var req []int
		for _, vs := range byPart {
			if i < len(vs) {
				req = append(req, vs[i])
			}
		}
		if req == nil {
			break
		}
		sweep = append(sweep, req)
	}

	run := func(policy Policy) Snapshot {
		_, rt := newServeFleet(t, 3, scfg, func(cfg *Config) { cfg.Policy = policy })
		for pass := 0; pass < 4; pass++ {
			for _, req := range sweep {
				resp, _ := predictVia(t, rt, req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s policy: status %d for vertices %v", policy, resp.StatusCode, req)
				}
			}
		}
		return rt.Metrics(context.Background())
	}

	partSnap := run(PolicyPartition)
	randSnap := run(PolicyRandom)
	t.Logf("partition: hit=%.3f gather=%.4f; random: hit=%.3f gather=%.4f",
		partSnap.FleetCacheHitRate, partSnap.FleetGatherFraction,
		randSnap.FleetCacheHitRate, randSnap.FleetGatherFraction)
	if partSnap.FleetCacheHitRate < randSnap.FleetCacheHitRate+0.1 {
		t.Fatalf("partition routing hit rate %.3f does not beat random %.3f",
			partSnap.FleetCacheHitRate, randSnap.FleetCacheHitRate)
	}
	if partSnap.FleetGatherFraction >= randSnap.FleetGatherFraction {
		t.Fatalf("partition routing gather fraction %.4f not below random %.4f",
			partSnap.FleetGatherFraction, randSnap.FleetGatherFraction)
	}
}
