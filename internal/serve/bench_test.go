package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"sagnn"
)

// benchProblem loads the quickstart dataset (protein-sim) and a
// quickly-trained model. SAGNN_SCALEDIV shrinks it for smoke runs, matching
// the other benchmark harnesses.
func benchProblem(b *testing.B) (*sagnn.Dataset, *sagnn.Model) {
	b.Helper()
	scaleDiv := 16
	if s := os.Getenv("SAGNN_SCALEDIV"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			scaleDiv = v
		}
	}
	ds := sagnn.MustLoadDataset(sagnn.ProteinSim, 42, scaleDiv)
	res, err := sagnn.RunSerial(ds, 1, sagnn.ModelConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return ds, res.Model
}

// BenchmarkServeSequential times one client, one vertex per request, each
// vertex once per pass over the graph: a lookup into the answer table.
func BenchmarkServeSequential(b *testing.B) {
	ds, model := benchProblem(b)
	srv, err := New(ds, model, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	n := ds.G.NumVertices()
	classes := make([]int, 1)
	probs := make([][]float64, 1)
	vert := make([]int, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vert[0] = i % n
		if _, err := srv.PredictInto(ctx, vert, classes, probs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeTable times what a model generation costs the server: the
// full-batch forward, the finiteness check, the argmax and the rows' JSON
// text behind New and every Swap.
func BenchmarkServeTable(b *testing.B) {
	ds, model := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := answers(ds, model, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRows times the JSON text alone: a generation's rows
// encoded once, striped over par.For.
func BenchmarkEncodeRows(b *testing.B) {
	ds, model := benchProblem(b)
	probs, err := model.Probabilities(ds, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeRows(probs)
	}
}

// BenchmarkPredictHandler times the /predict handler alone, without a
// socket: decoding an 8-vertex body, the lookup and the reply.
func BenchmarkPredictHandler(b *testing.B) {
	ds, model := benchProblem(b)
	srv, err := New(ds, model, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	n := ds.G.NumVertices()
	bodies := make([][]byte, 64)
	for i := range bodies {
		vertices := make([]int, 8)
		for j := range vertices {
			vertices[j] = (i*8 + j) * 7919 % n
		}
		bodies[i], _ = json.Marshal(PredictRequest{Vertices: vertices})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
}
