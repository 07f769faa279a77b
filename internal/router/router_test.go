package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sagnn/internal/retry"
	"sagnn/internal/serve"
)

// fakeReplica is a minimal scriptable replica: it speaks the four serve
// endpoints with fully deterministic bodies, so routing-layer behavior
// (splits, merges, generation conflicts, Retry-After propagation,
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
// vertex v at generation gen — distinct across both axes, so any
// cross-generation mixing or misrouted merge shows up as a wrong value.
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

// newFakeFleet builds k fakes over n vertices with PartOf(v) = v % k and a
// router configured for fast, test-friendly health checking.
func newFakeFleet(t *testing.T, k, n int, mutate func(cfg *Config)) ([]*fakeReplica, *Router) {
	t.Helper()
	fakes := make([]*fakeReplica, k)
	handlers := make([]http.Handler, k)
	for i := range fakes {
		fakes[i] = &fakeReplica{gen: 1, n: n}
		handlers[i] = fakes[i]
	}
	cfg := Config{
		PartOf:         func(v int) int { return v % k },
		HealthInterval: 20 * time.Millisecond,
	}
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
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	resp := w.Result()
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
		name string
		cfg  Config
	}{
		{"missing PartOf", Config{Policy: PolicyPartition}},
		{"unknown policy", Config{Policy: "teleport"}},
		{"negative MaxInFlight", Config{Policy: PolicyRandom, MaxInFlight: -2}},
		{"negative HealthInterval", Config{Policy: PolicyRandom, HealthInterval: -time.Second}},
		{"negative EjectAfter", Config{Policy: PolicyRandom, EjectAfter: -1}},
		{"negative ReadmitAfter", Config{Policy: PolicyRandom, ReadmitAfter: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.withDefaults(); !errors.Is(err, ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
		})
	}
	if _, err := New(nil, Config{Policy: PolicyRandom}); !errors.Is(err, ErrConfig) {
		t.Fatalf("New(no replicas) err = %v, want ErrConfig", err)
	}
}

// TestBootProbeRejectsMixedFleet pins the boot contract: replicas at
// different generations (or different datasets) refuse to form a fleet.
func TestBootProbeRejectsMixedFleet(t *testing.T) {
	a, b := &fakeReplica{gen: 1, n: 10}, &fakeReplica{gen: 2, n: 10}
	_, err := New([]http.Handler{a, b}, Config{Policy: PolicyRandom})
	if err == nil || !strings.Contains(err.Error(), "generation") {
		t.Fatalf("mixed-generation boot err = %v", err)
	}
	c := &fakeReplica{gen: 1, n: 11}
	_, err = New([]http.Handler{a, c}, Config{Policy: PolicyRandom})
	if err == nil || !strings.Contains(err.Error(), "serves") {
		t.Fatalf("mixed-dataset boot err = %v", err)
	}
}

// TestSplitMergeInputOrder pins the core routing move: a mixed request is
// split per owning replica and merged back in input order, with each
// vertex answered by its home replica.
func TestSplitMergeInputOrder(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	verts := []int{7, 0, 11, 2, 28, 9, 1} // parts 1,0,2,2,1,0,1
	resp, pr := predictVia(t, rt, verts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for i, v := range verts {
		want := fakeRow(v, 1)
		if len(pr.Probs[i]) != len(want) || pr.Probs[i][0] != want[0] || pr.Probs[i][1] != want[1] {
			t.Fatalf("vertex %d (pos %d): probs %v, want %v", v, i, pr.Probs[i], want)
		}
		if pr.Classes[i] != v%3 {
			t.Fatalf("vertex %d class %d, want %d", v, pr.Classes[i], v%3)
		}
	}
	// Every fake served at least one sub-request: the request really split.
	for i, f := range fakes {
		f.mu.Lock()
		n := f.predicts
		f.mu.Unlock()
		if n == 0 {
			t.Fatalf("replica %d saw no sub-request", i)
		}
	}
	snap := rt.Metrics(context.Background())
	if snap.Splits != 1 {
		t.Fatalf("splits = %d, want 1", snap.Splits)
	}
}

// TestGenerationConflictNeverMixes pins the hot-swap consistency
// guarantee: when replicas disagree on generation mid-roll, the merged
// response must come wholly from one generation — the router retries the
// request on a single replica instead of mixing models.
func TestGenerationConflictNeverMixes(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	fakes[1].setGen(2)               // replica-1 swapped; 0 and 2 still at gen 1
	verts := []int{0, 1, 2, 3, 4, 5} // spans all three replicas
	resp, pr := predictVia(t, rt, verts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	gen := pr.Generation
	for i, v := range verts {
		want := fakeRow(v, gen)
		if pr.Probs[i][0] != want[0] {
			t.Fatalf("vertex %d: probs %v from a different generation than reported %d", v, pr.Probs[i], gen)
		}
	}
	snap := rt.Metrics(context.Background())
	if snap.GenRetries == 0 {
		t.Fatal("generation conflict did not register a retry")
	}
}

// TestRetryAfterPropagation pins fleet admission etiquette: a replica
// shedding with Retry-After fails the whole request with 503 and the
// largest Retry-After any replica asked for.
func TestRetryAfterPropagation(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	fakes[1].mu.Lock()
	fakes[1].shed, fakes[1].retryAfter = true, "7"
	fakes[1].mu.Unlock()
	resp, _ := predictVia(t, rt, []int{0, 1, 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want 7", ra)
	}
	snap := rt.Metrics(context.Background())
	if snap.Shed != 1 {
		t.Fatalf("shed = %d, want 1", snap.Shed)
	}
}

// TestRouterAdmissionControl pins the router's own shedding: with
// MaxInFlight 1 and one request parked inside a replica, a second request
// is shed with 503 + Retry-After before touching any replica.
func TestRouterAdmissionControl(t *testing.T) {
	block := make(chan struct{})
	slow := &blockingReplica{n: 30, release: block, entered: make(chan struct{})}
	rt, err := New([]http.Handler{slow}, Config{Policy: PolicyRandom, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	started := make(chan struct{})
	go func() {
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
// answering bare 503s (closing, not shedding) does not fail requests —
// its sub-requests divert to the next healthy replica immediately, before
// the health loop has even noticed.
func TestRerouteAroundDeadReplica(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, func(cfg *Config) {
		cfg.HealthInterval = time.Hour // the health loop must not help
	})
	fakes[2].setDead(true)
	resp, pr := predictVia(t, rt, []int{2, 5, 8}) // all part 2
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for i, v := range []int{2, 5, 8} {
		if want := fakeRow(v, 1); pr.Probs[i][0] != want[0] {
			t.Fatalf("vertex %d: probs %v, want %v", v, pr.Probs[i], want)
		}
	}
	snap := rt.Metrics(context.Background())
	if snap.Reroutes == 0 {
		t.Fatal("no reroute recorded")
	}
}

// TestEjectedHomeDivertsItsGroup pins the request-path health fallback: the
// vertices whose home replica is ejected travel as one sub-request to the
// next healthy replica — the ejected one is never asked, and the diversion
// counts once, as one sub-request, not once per vertex.
func TestEjectedHomeDivertsItsGroup(t *testing.T) {
	fakes, rt := newFakeFleet(t, 3, 30, nil)
	fakes[2].setDown(true) // ejected by the health loop, /predict still answers
	waitFor(t, time.Second, func() bool { return !rt.replicas[2].healthy.Load() })
	verts := []int{2, 0, 5, 8} // parts 2,0,2,2
	resp, pr := predictVia(t, rt, verts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for i, v := range verts {
		if want := fakeRow(v, 1); pr.Probs[i][0] != want[0] {
			t.Fatalf("vertex %d (pos %d): probs %v, want %v", v, i, pr.Probs[i], want)
		}
	}
	fakes[2].mu.Lock()
	asked := fakes[2].predicts
	fakes[2].mu.Unlock()
	if asked != 0 {
		t.Fatalf("ejected replica answered %d sub-requests", asked)
	}
	if snap := rt.Metrics(context.Background()); snap.Reroutes != 1 {
		t.Fatalf("reroutes = %d, want 1", snap.Reroutes)
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
	// Its vertices reroute; the fleet keeps answering.
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
