package router

import (
	"bytes"
	"encoding/json"
	"testing"

	"sagnn/internal/serve"
)

// FuzzRouterPredictBody sends arbitrary bytes to the fleet's /predict and
// to a single un-routed serve.Server's: the routed reply's status,
// Retry-After and body bytes must equal the single server's.
func FuzzRouterPredictBody(f *testing.F) {
	ds, modelA, _ := fleetProblem(f)
	single, err := serve.New(ds, modelA.Clone(), serve.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(single.Close)
	_, rt := newServeFleet(f, 3, serve.Config{}, nil)

	for _, verts := range conformanceBatches {
		body, _ := json.Marshal(serve.PredictRequest{Vertices: verts})
		f.Add(body)
	}
	for _, body := range []string{
		``, `{}`, `{"vertices":[]}`, `{"vertices":[120]}`, `{"vertices":[-1]}`,
		`{"vertices":[3,3]}`, `{"vertices":[1]}trailing`, `{"vertices":[1]} {}`, `null`, `{"vertices":"x"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		routed, ref := postRaw(rt.Handler(), body), postRaw(single.Handler(), body)
		if routed.Code != ref.Code || routed.Header().Get("Retry-After") != ref.Header().Get("Retry-After") ||
			!bytes.Equal(routed.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("body %q: routed %d (Retry-After %q) %q, single %d (Retry-After %q) %q", body,
				routed.Code, routed.Header().Get("Retry-After"), routed.Body,
				ref.Code, ref.Header().Get("Retry-After"), ref.Body)
		}
	})
}
