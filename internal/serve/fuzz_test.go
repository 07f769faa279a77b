package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sagnn"
)

// serveBody sends one POST body to a handler path and returns the status
// and reply bytes.
func serveBody(srv *Server, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// checkErrorDoc fails unless a reply is a JSON {"error": …} document.
func checkErrorDoc(t *testing.T, code int, reply []byte) {
	t.Helper()
	var doc map[string]string
	if err := json.Unmarshal(reply, &doc); err != nil || doc["error"] == "" {
		t.Fatalf("status %d reply %q is not an error document (%v)", code, reply, err)
	}
}

// FuzzPredictBody sends arbitrary bytes to /predict: the answer is a 200
// whose classes are the model's full-batch classes at the requested
// vertices, or a 4xx error document — never a 500, never a panic.
func FuzzPredictBody(f *testing.F) {
	ds, model, _ := testProblem(f)
	want, err := model.Predict(ds, nil)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(ds, model, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	for _, seed := range []string{
		`{"vertices":[0,1,2]}`, `{"vertices":[95,3,40]}`, `{"vertices":[5,5]}`,
		`{"vertices":[]}`, `{"vertices":null}`, `{}`, `{"vertices":[-1]}`,
		`{"vertices":[96]}`, `{"vertices":[1.5]}`, `{"vertices":[1e30]}`,
		`{"vertices":[7]} trailing`, `[1,2]`, `{nope`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, reply := serveBody(srv, "/predict", body)
		if code != http.StatusOK {
			if code < 400 || code >= 500 {
				t.Fatalf("status %d for body %q: %s", code, body, reply)
			}
			checkErrorDoc(t, code, reply)
			return
		}
		// The server reads the first JSON value of the body, as here.
		var req PredictRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		var resp PredictResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("200 with a broken reply %q: %v", reply, err)
		}
		if resp.Generation != 1 || len(resp.Classes) != len(req.Vertices) || len(resp.Probs) != len(req.Vertices) {
			t.Fatalf("reply %+v for request %v", resp, req.Vertices)
		}
		for i, v := range req.Vertices {
			if resp.Classes[i] != want[v] {
				t.Fatalf("vertex %d: served class %d, Predict says %d", v, resp.Classes[i], want[v])
			}
		}
	})
}

// FuzzSwapBody sends arbitrary bytes to /admin/swap: a 400 leaves the
// generation where it was, a 200 advances it by one, and either way the
// server still answers /predict at the generation it reports.
func FuzzSwapBody(f *testing.F) {
	ds, modelA, modelB := testProblem(f)
	blob, err := modelB.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	cluster, err := sagnn.NewCluster(2)
	if err != nil {
		f.Fatal(err)
	}
	dg, err := cluster.Distribute(ds, sagnn.DistOpts{Algorithm: sagnn.SparsityAware1D})
	if err != nil {
		f.Fatal(err)
	}
	sess, err := dg.NewSession(sagnn.ModelConfig{Hidden: 8, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 1); err != nil {
		f.Fatal(err)
	}
	checkpoint, err := sess.Snapshot().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(checkpoint)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, body []byte) {
		// A server per input, so a failure replays from its input alone.
		srv, err := New(ds, modelA, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		code, reply := serveBody(srv, "/admin/swap", body)
		switch code {
		case http.StatusOK:
			if got := srv.Generation(); got != 2 {
				t.Fatalf("accepted swap moved generation 1 → %d", got)
			}
		case http.StatusBadRequest:
			checkErrorDoc(t, code, reply)
			if got := srv.Generation(); got != 1 {
				t.Fatalf("rejected swap moved generation 1 → %d", got)
			}
		default:
			t.Fatalf("swap status %d: %s", code, reply)
		}
		code, reply = serveBody(srv, "/predict", []byte(`{"vertices":[0,5,40]}`))
		var resp PredictResponse
		if err := json.Unmarshal(reply, &resp); code != http.StatusOK || err != nil || len(resp.Classes) != 3 {
			t.Fatalf("/predict after swap status %d: %s (%v)", code, strings.TrimSpace(string(reply)), err)
		}
		if resp.Generation != srv.Generation() {
			t.Fatalf("/predict answered at generation %d, server at %d", resp.Generation, srv.Generation())
		}
	})
}
