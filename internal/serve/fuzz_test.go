package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// vertices, or a 4xx error document — never a 500, never a panic. A body
// json.Decoder cannot decode is a 400 carrying the decoder's error. A 200's
// bytes are json.Encoder's for the PredictResponse PredictInto fills on the
// same body: the spliced reply is the encoded one, byte for byte.
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
		`{"vertices":[1]}{"vertices":[2]}`, `{"vertices":[3]}]`, `null x`, `5 {`, " \n\t",
		`{"vertices":[1e`, `{"vertices":[-`, `tru`, `{"vertices":[1],"vertices":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, reply := serveBody(srv, "/predict", body)
		// The server reads the first JSON value of the body, as here.
		req, decErr := decoderVerdict(body)
		if decErr != nil {
			if want := badBodyDoc(decErr); code != http.StatusBadRequest || !bytes.Equal(reply, want) {
				t.Fatalf("body %q: status %d %q, want 400 %q", body, code, reply, want)
			}
			return
		}
		if code != http.StatusOK {
			if code < 400 || code >= 500 {
				t.Fatalf("status %d for body %q: %s", code, body, reply)
			}
			checkErrorDoc(t, code, reply)
			return
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
		classes := make([]int, len(req.Vertices))
		probs := make([][]float64, len(req.Vertices))
		gen, err := srv.PredictInto(context.Background(), req.Vertices, classes, probs)
		if err != nil {
			t.Fatalf("200 over HTTP, PredictInto says %v", err)
		}
		if encoded := encodeReply(t, PredictResponse{Generation: gen, Classes: classes, Probs: probs}); !bytes.Equal(reply, encoded) {
			t.Fatalf("reply for %v\n got %q\nwant %q", req.Vertices, reply, encoded)
		}
	})
}

// decoderVerdict decodes a /predict body as a json.Decoder over the body
// cut at MaxPredictBody does; DecodePredict must agree, error text included.
func decoderVerdict(body []byte) (PredictRequest, error) {
	var req PredictRequest
	src := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), MaxPredictBody)
	err := json.NewDecoder(src).Decode(&req)
	return req, err
}

// badBodyDoc is the error document DecodePredict answers a body that fails
// to decode with.
func badBodyDoc(err error) []byte {
	w := httptest.NewRecorder()
	WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return w.Body.Bytes()
}

// TestDecodePredictMatchesDecoder holds DecodePredict to json.Decoder's
// verdict on bodies the fuzzer does not reach: ones at and past
// MaxPredictBody, where the bound cuts a value or leaves it whole.
func TestDecodePredictMatchesDecoder(t *testing.T) {
	pad := func(n int, tail string) string { return strings.Repeat(" ", n) + tail }
	for _, body := range []string{
		pad(MaxPredictBody-20, `{"vertices":[1,2]}`) + pad(MaxPredictBody, "x"),
		pad(MaxPredictBody-4, `null`) + "x",
		pad(MaxPredictBody-5, `null`) + " x",
		pad(MaxPredictBody-4, `null`),
		pad(MaxPredictBody-2, `{}`) + "}",
		pad(MaxPredictBody-6, `{"vert`) + `ices":[1]}`,
		pad(MaxPredictBody+1, ""),
		pad(MaxPredictBody, ""),
		`{"vertices":[1,2,3]}`, `{}`, `null`, `{"vertices":[]}`, `{"vertices":null}`,
		`{"vertices":[4]} {"vertices":[5]}`, `{"vertices":[1e`, ``, "\n",
	} {
		front := NewFront(InFlightUnlimited)
		w := httptest.NewRecorder()
		got, ok := front.DecodePredict(w, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		want, err := decoderVerdict([]byte(body))
		short := body
		if len(short) > 40 {
			short = "…" + short[len(short)-40:]
		}
		if ok != (err == nil) || (ok && !reflect.DeepEqual(got, want)) {
			t.Fatalf("body %q (%d bytes): decoded %#v ok=%v, json.Decoder %#v err=%v", short, len(body), got, ok, want, err)
		}
		if !ok && !bytes.Equal(w.Body.Bytes(), badBodyDoc(err)) {
			t.Fatalf("body %q (%d bytes): reply %q, want %q", short, len(body), w.Body, badBodyDoc(err))
		}
	}
}

// encodeReply is the /predict reply json.Encoder writes for resp.
func encodeReply(t testing.TB, resp PredictResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRowJSON holds the row encoder to encoding/json: for any row of finite
// float64s (the input's 8-byte little-endian words, non-finite ones
// dropped) appendRow writes json.Marshal's bytes, within rowBound.
func FuzzRowJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	edges := []float64{0, negZero, 1, 1e-6, 9.999999e-7, 1e-7, 5e-324, 9.99e20, 1e21}
	for _, p := range edges {
		f.Add(rowBytes(p))
	}
	f.Add(rowBytes(edges...))
	f.Add(rowBytes(-1.2345678901234567e-6, -math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 1.0/3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			if p := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(p) && !math.IsInf(p, 0) {
				row = append(row, p)
			}
		}
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		got := appendRow(nil, row)
		if !bytes.Equal(got, want) {
			t.Fatalf("row %v\n got %s\nwant %s", row, got, want)
		}
		if len(got) > rowBound(len(row)) {
			t.Fatalf("row %v: %d bytes exceed rowBound %d", row, len(got), rowBound(len(row)))
		}
	})
}

// rowBytes is a FuzzRowJSON input: row's values as little-endian words.
func rowBytes(row ...float64) []byte {
	b := make([]byte, 0, 8*len(row))
	for _, p := range row {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	return b
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
