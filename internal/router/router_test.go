package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sagnn/internal/retry"
	"sagnn/internal/serve"
)

// fakeReplica is a minimal scriptable replica: it speaks the four serve
// endpoints with fully deterministic bodies, so routing-layer behavior
// (replica choice, pass-through of replies and Retry-After, reroutes,
// readmission catch-up) is testable without real inference.
type fakeReplica struct {
	mu         sync.Mutex
	gen        uint64
	n          int    // advertised vertex count
	down       bool   // healthz answers 503
	shed       bool   // predict answers 503 with Retry-After
	retryAfter string // the Retry-After value when shedding
	dead       bool   // predict answers bare 503 (a closing replica)
	swaps      int
	predicts   int
}

// fakeRow is the deterministic probability row a fake replica returns for
// vertex v at generation gen — distinct across both axes, so a reply from
// the wrong generation or for the wrong vertex shows up as a wrong value.
func fakeRow(v int, gen uint64) []float64 {
	return []float64{float64(v) + 1000*float64(gen), float64(v % 3)}
}

func (f *fakeReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch r.URL.Path {
	case "/healthz":
		code := http.StatusOK
		status := "ok"
		if f.down {
			code, status = http.StatusServiceUnavailable, "shutting down"
		}
		writeJSON(w, code, serve.Health{Status: status, Generation: f.gen, Dataset: "fake", Vertices: f.n, Classes: 2})
	case "/predict":
		f.predicts++
		if f.shed {
			w.Header().Set("Retry-After", f.retryAfter)
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "overloaded"})
			return
		}
		if f.dead {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "closed"})
			return
		}
		var req serve.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		resp := serve.PredictResponse{Generation: f.gen}
		for _, v := range req.Vertices {
			if v < 0 || v >= f.n {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid vertices: out of range"})
				return
			}
			resp.Probs = append(resp.Probs, fakeRow(v, f.gen))
			resp.Classes = append(resp.Classes, v%3)
		}
		writeJSON(w, http.StatusOK, resp)
	case "/metrics":
		writeJSON(w, http.StatusOK, serve.Snapshot{})
	case "/admin/swap":
		f.gen++
		f.swaps++
		writeJSON(w, http.StatusOK, map[string]any{"generation": f.gen, "epoch": 7})
	default:
		http.NotFound(w, r)
	}
}

func (f *fakeReplica) setGen(g uint64) { f.mu.Lock(); f.gen = g; f.mu.Unlock() }
func (f *fakeReplica) setDown(d bool)  { f.mu.Lock(); f.down = d; f.mu.Unlock() }
func (f *fakeReplica) setDead(d bool)  { f.mu.Lock(); f.dead = d; f.mu.Unlock() }

// predictCount reads how many /predict requests the fake has received.
func (f *fakeReplica) predictCount() int { f.mu.Lock(); defer f.mu.Unlock(); return f.predicts }

// newFakeFleet builds k fakes over n vertices and a router configured for
// fast, test-friendly health checking.
func newFakeFleet(t *testing.T, k, n int, mutate func(cfg *Config)) ([]*fakeReplica, *Router) {
	t.Helper()
	fakes := make([]*fakeReplica, k)
	handlers := make([]http.Handler, k)
	for i := range fakes {
		fakes[i] = &fakeReplica{gen: 1, n: n}
		handlers[i] = fakes[i]
	}
	cfg := Config{HealthInterval: 20 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(handlers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return fakes, rt
}

// predictVia posts a predict request through the router's handler.
func predictVia(t *testing.T, rt *Router, vertices []int) (*http.Response, serve.PredictResponse) {
	t.Helper()
	body, _ := json.Marshal(serve.PredictRequest{Vertices: vertices})
	resp := postRaw(rt.Handler(), body).Result()
	defer resp.Body.Close()
	var pr serve.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"Policy and PartOf are ignored", Config{Policy: "teleport", PartOf: func(int) int { return -1 }}, false},
		{"negative MaxInFlight", Config{MaxInFlight: -2}, true},
		{"negative HealthInterval", Config{HealthInterval: -time.Second}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.withDefaults()
			if tc.wantErr && !errors.Is(err, ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
		})
	}
	if _, err := New(nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("New(no replicas) err = %v, want ErrConfig", err)
	}
}

// TestBootProbeRejectsMixedFleet pins the boot contract: replicas at
// different generations (or different datasets) refuse to form a fleet.
func TestBootProbeRejectsMixedFleet(t *testing.T) {
	a, b := &fakeReplica{gen: 1, n: 10}, &fakeReplica{gen: 2, n: 10}
	_, err := New([]http.Handler{a, b}, Config{})
	if err == nil || !strings.Contains(err.Error(), "generation") {
		t.Fatalf("mixed-generation boot err = %v", err)
	}
	c := &fakeReplica{gen: 1, n: 11}
	_, err = New([]http.Handler{a, c}, Config{})
	if err == nil || !strings.Contains(err.Error(), "serves") {
		t.Fatalf("mixed-dataset boot err = %v", err)
	}
}

// TestRetryAfterPropagation pins fleet admission etiquette: a shedding
// replica's 503, its Retry-After and its error document reach the client
// verbatim, and the shed is not retried on another replica.
func TestRetryAfterPropagation(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	for i, f := range fakes {
		f.mu.Lock()
		f.shed, f.retryAfter = true, strconv.Itoa(5+i)
		f.mu.Unlock()
	}
	for n := 1; n <= 6; n++ {
		before := make([]int, len(fakes))
		for i, f := range fakes {
			before[i] = f.predictCount()
		}
		w := postRaw(rt.Handler(), []byte(`{"vertices":[0,1,2]}`))
		asked := -1
		for i, f := range fakes {
			if d := f.predictCount() - before[i]; d == 1 && asked < 0 {
				asked = i
			} else if d != 0 {
				t.Fatalf("request %d reached replica %d %d times", n, i, d)
			}
		}
		if asked < 0 {
			t.Fatalf("request %d reached no replica", n)
		}
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", w.Code)
		}
		if ra, want := w.Header().Get("Retry-After"), strconv.Itoa(5+asked); ra != want {
			t.Fatalf("Retry-After %q, want replica %d's %q", ra, asked, want)
		}
		if got, want := w.Body.String(), "{\"error\":\"overloaded\"}\n"; got != want {
			t.Fatalf("body %q, want the replica's %q", got, want)
		}
		if snap := rt.Metrics(context.Background()); snap.Shed != uint64(n) || snap.Reroutes != 0 {
			t.Fatalf("shed = %d, reroutes = %d, want %d and 0", snap.Shed, snap.Reroutes, n)
		}
	}
}

// TestReplicaErrorPassesThrough pins that a replica's 4xx answer reaches
// the client byte for byte: the router validates nothing itself.
func TestReplicaErrorPassesThrough(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	for _, body := range []string{`{"vertices":[0,99]}`, `{"vertices":[-1]}`, `{"vertices":`, `[1,2]`} {
		want := postRaw(fakes[0], []byte(body))
		got := postRaw(rt.Handler(), []byte(body))
		if want.Code != http.StatusBadRequest {
			t.Fatalf("%s: the fake answered %d, want a 400 to pass through", body, want.Code)
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: routed %d %q, replica %d %q", body, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if snap := rt.Metrics(context.Background()); snap.Failed != 4 || snap.Requests != 0 {
		t.Fatalf("failed = %d, requests = %d, want 4 and 0", snap.Failed, snap.Requests)
	}
}

// TestRouterAdmissionControl pins the router's own shedding: with
// MaxInFlight 1 and one request parked inside a replica, a second request
// is shed with 503 + Retry-After before touching any replica.
func TestRouterAdmissionControl(t *testing.T) {
	block := make(chan struct{})
	slow := &blockingReplica{n: 30, release: block, entered: make(chan struct{})}
	rt, err := New([]http.Handler{slow}, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(serve.PredictRequest{Vertices: []int{1}})
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		close(started)
		rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-started
	<-slow.entered // first request is inside the replica, occupying the slot
	resp, _ := predictVia(t, rt, []int{2})
	close(block)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("router shed without Retry-After")
	}
	// The shed is on the router's /metrics under the keys CI's overload
	// gate reads off a replica, and the gauge drains once both finish.
	<-done
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc struct {
		Admission struct {
			Shed        *uint64 `json:"shed"`
			MaxInFlight *int    `json:"max_in_flight"`
			InFlight    *int64  `json:"in_flight"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if a := doc.Admission; a.Shed == nil || *a.Shed != 1 || a.MaxInFlight == nil || *a.MaxInFlight != 1 ||
		a.InFlight == nil || *a.InFlight != 0 {
		t.Fatalf("router /metrics admission block: %s", w.Body)
	}
}

// blockingReplica parks /predict until released, for admission tests.
type blockingReplica struct {
	n       int
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockingReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		writeJSON(w, http.StatusOK, serve.Health{Status: "ok", Generation: 1, Dataset: "fake", Vertices: b.n, Classes: 2})
	case "/predict":
		b.once.Do(func() { close(b.entered) })
		<-b.release
		writeJSON(w, http.StatusOK, serve.PredictResponse{Generation: 1, Classes: []int{0}, Probs: [][]float64{{1}}})
	default:
		writeJSON(w, http.StatusOK, serve.Snapshot{})
	}
}

// TestRerouteAroundDeadReplica pins the request-path fallback: a replica
// answering bare 503s (closing, not shedding) does not fail requests — a
// request drawn to it goes to the next healthy replica at once, before the
// health loop has even noticed.
func TestRerouteAroundDeadReplica(t *testing.T) {
	fakes, rt := newFakeFleet(t, 2, 30, func(cfg *Config) {
		cfg.HealthInterval = time.Hour // the health loop must not help
	})
	fakes[1].setDead(true)
	for n := 0; n < 10; n++ {
		resp, pr := predictVia(t, rt, []int{2, 5, 8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		for i, v := range []int{2, 5, 8} {
			if want := fakeRow(v, 1); pr.Probs[i][0] != want[0] {
				t.Fatalf("vertex %d: probs %v, want %v", v, pr.Probs[i], want)
			}
		}
	}
	snap := rt.Metrics(context.Background())
	if asked := fakes[1].predictCount(); snap.Reroutes == 0 || snap.Reroutes != uint64(asked) {
		t.Fatalf("reroutes = %d for %d requests to the dead replica, want equal and > 0", snap.Reroutes, asked)
	}
}

// TestEjectedHomeDivertsItsGroup pins the request-path health fallback: an
// ejected replica receives no request, and the healthy ones answer every
// one; each request drawn to the ejected replica counts one reroute.
func TestEjectedHomeDivertsItsGroup(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	fakes[2].setDown(true) // ejected by the health loop, /predict still answers
	waitFor(t, time.Second, func() bool { return !rt.replicas[2].healthy.Load() })
	const requests = 30
	for n := 0; n < requests; n++ {
		verts := []int{n % 30, (n + 7) % 30}
		resp, pr := predictVia(t, rt, verts)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		for i, v := range verts {
			if want := fakeRow(v, 1); pr.Probs[i][0] != want[0] {
				t.Fatalf("vertex %d (pos %d): probs %v, want %v", v, i, pr.Probs[i], want)
			}
		}
	}
	if asked := fakes[2].predictCount(); asked != 0 {
		t.Fatalf("ejected replica answered %d requests", asked)
	}
	if got := fakes[0].predictCount() + fakes[1].predictCount(); got != requests {
		t.Fatalf("healthy replicas answered %d requests, want %d", got, requests)
	}
	if snap := rt.Metrics(context.Background()); snap.Reroutes == 0 || snap.Reroutes > requests {
		t.Fatalf("reroutes = %d, want 1..%d", snap.Reroutes, requests)
	}
}

// TestEjectAndReadmitWithCatchUp walks the full health state machine: a
// down replica is ejected; a rolling swap happens while it is out; on
// recovery the router pushes the missed artifact (generation catch-up)
// before readmitting, so the readmitted replica serves the fleet model.
func TestEjectAndReadmitWithCatchUp(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	fakes[1].setDown(true)
	fakes[1].setDead(true)
	waitFor(t, time.Second, func() bool { return !rt.replicas[1].healthy.Load() })

	// Roll the fleet to generation 2 while replica-1 is out.
	req := httptest.NewRequest(http.MethodPost, "/admin/swap", bytes.NewReader([]byte("model-bytes")))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("swap status %d: %s", w.Code, w.Body)
	}
	var sw swapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Generation != 2 {
		t.Fatalf("fleet generation %d, want 2", sw.Generation)
	}
	skipped := 0
	for _, rs := range sw.Replicas {
		if rs.Skipped {
			skipped++
		}
	}
	if skipped != 1 {
		t.Fatalf("swap skipped %d replicas, want 1 (the ejected one)", skipped)
	}

	// Replica-1 recovers: readmission must include the catch-up swap.
	fakes[1].setDown(false)
	fakes[1].setDead(false)
	waitFor(t, time.Second, func() bool { return rt.replicas[1].healthy.Load() })
	fakes[1].mu.Lock()
	gen, swaps := fakes[1].gen, fakes[1].swaps
	fakes[1].mu.Unlock()
	if gen != 2 || swaps != 1 {
		t.Fatalf("readmitted replica at generation %d after %d swaps, want 2 after 1", gen, swaps)
	}
}

// TestKillEndpoint pins the chaos hook: /admin/kill runs the configured
// callback, ejects the replica immediately, and the fleet keeps serving.
func TestKillEndpoint(t *testing.T) {
	var killedIdx = -1
	fakes, rt := newFakeFleet(t, 3, 30, func(cfg *Config) {
		cfg.Kill = func(i int) error { killedIdx = i; return nil }
	})
	fakes[0].setDead(true) // what a real Close does to /predict
	req := httptest.NewRequest(http.MethodPost, "/admin/kill?replica=0", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("kill status %d: %s", w.Code, w.Body)
	}
	if killedIdx != 0 {
		t.Fatalf("kill hook got %d, want 0", killedIdx)
	}
	if rt.replicas[0].healthy.Load() {
		t.Fatal("killed replica still marked healthy")
	}
	// A request drawn to it reroutes; the fleet keeps answering.
	resp, _ := predictVia(t, rt, []int{0, 3, 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill status %d", resp.StatusCode)
	}
	// A second kill of the same replica conflicts.
	w = httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/kill?replica=0", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("double-kill status %d, want 409", w.Code)
	}
}

// TestFleetHealthDocument pins the /healthz status ladder: ok → degraded
// (some replicas out, still 200) → down (none left, 503).
func TestFleetHealthDocument(t *testing.T) {
	fakes, rt := newFakeFleet(t, 2, 20, nil)
	get := func() (int, FleetHealth) {
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h FleetHealth
		_ = json.Unmarshal(w.Body.Bytes(), &h)
		return w.Code, h
	}
	code, h := get()
	if code != http.StatusOK || h.Status != "ok" || h.Healthy != 2 {
		t.Fatalf("healthy fleet: %d %+v", code, h)
	}
	fakes[0].setDown(true)
	waitFor(t, time.Second, func() bool { return !rt.replicas[0].healthy.Load() })
	code, h = get()
	if code != http.StatusOK || h.Status != "degraded" || h.Healthy != 1 {
		t.Fatalf("degraded fleet: %d %+v", code, h)
	}
	fakes[1].setDown(true)
	waitFor(t, time.Second, func() bool { return !rt.replicas[1].healthy.Load() })
	code, h = get()
	if code != http.StatusServiceUnavailable || h.Status != "down" {
		t.Fatalf("down fleet: %d %+v", code, h)
	}
}

// waitFor polls cond every few milliseconds (through the centralized
// backoff funnel) until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		_ = retry.Sleep(context.Background(), 5*time.Millisecond, 1)
	}
}
