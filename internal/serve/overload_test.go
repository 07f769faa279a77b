package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"sagnn/internal/dense"
	"sagnn/internal/sparse"
)

// This file covers the overload-protection layer: admission control that
// sheds excess load with 503 instead of queueing without bound, per-request
// deadlines that cut batch waits, per-batch panic isolation, and batcher
// goroutine hygiene on shutdown.

// TestAdmissionControlShedsAndRecovers saturates a MaxInFlight=2 server
// with 10 concurrent requests: the excess is shed with 503 + Retry-After,
// the shed counter matches, and the server serves normally afterwards.
func TestAdmissionControlShedsAndRecovers(t *testing.T) {
	srv, hs, _, _, _ := newTestServer(t, Config{
		BatchWindow: 100 * time.Millisecond, // hold admitted requests in the window
		CacheSize:   -1,                     // force every request through the batcher
		MaxInFlight: 2,
	})

	const offered = 10
	type reply struct {
		status     int
		retryAfter string
	}
	replies := make([]reply, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, err := tryPredictHeader(hs.URL, []int{i}, &replies[i].retryAfter)
			if err != nil {
				t.Error(err)
				return
			}
			replies[i].status = status
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for _, r := range replies {
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter != "1" {
				t.Errorf("shed response missing Retry-After: %q", r.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok+shed != offered {
		t.Fatalf("ok %d + shed %d != offered %d", ok, shed, offered)
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("expected a mix of served and shed, got ok %d shed %d", ok, shed)
	}

	snap := srv.Metrics()
	if snap.Admission.Shed != uint64(shed) {
		t.Fatalf("metrics report %d shed, loadgen saw %d", snap.Admission.Shed, shed)
	}
	if snap.Admission.MaxInFlight != 2 {
		t.Fatalf("metrics report limit %d", snap.Admission.MaxInFlight)
	}
	if snap.Admission.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d after drain", snap.Admission.InFlight)
	}

	// The shed wave left no residue: a lone request is served normally.
	if status, _, err := tryPredict(hs.URL, []int{0}); err != nil || status != http.StatusOK {
		t.Fatalf("post-overload request: status %d err %v", status, err)
	}
}

// TestRequestTimeoutCutsBatchWait pins the per-request deadline: a request
// that would wait out a long batch window fails with DeadlineExceeded
// (mapped to 503) well before the window closes.
func TestRequestTimeoutCutsBatchWait(t *testing.T) {
	ds, model, _ := testProblem(t)
	srv, err := New(ds, model, Config{
		BatchWindow:    400 * time.Millisecond,
		CacheSize:      -1,
		RequestTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	classes := make([]int, 1)
	probs := make([][]float64, 1)
	start := time.Now()
	_, err = srv.PredictInto(context.Background(), []int{1}, classes, probs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("deadline did not cut the batch wait: took %v", elapsed)
	}
	if got := statusFor(err); got != http.StatusServiceUnavailable {
		t.Fatalf("expired request maps to %d, want 503", got)
	}
	if snap := srv.Metrics(); snap.Failed == 0 {
		t.Fatal("expired request not counted as failed")
	}
}

// TestInferencePanicIsolated sabotages the serving state so inference
// panics: the affected request gets a 500, the panic is counted, the
// batcher loop survives, and restoring a good state resumes normal service.
func TestInferencePanicIsolated(t *testing.T) {
	srv, hs, _, _, _ := newTestServer(t, Config{BatchWindow: -1, CacheSize: -1})
	good := srv.state.Load()

	// A nil model makes execBatch panic on first touch.
	srv.state.Store(&modelState{model: nil, cache: NewCache(16), generation: good.generation + 1})
	status, _, err := tryPredict(hs.URL, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking inference returned %d, want 500", status)
	}
	if snap := srv.Metrics(); snap.Admission.Panics == 0 {
		t.Fatal("panic not counted")
	}

	srv.state.Store(good)
	status, pr, err := tryPredict(hs.URL, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || len(pr.Classes) != 1 {
		t.Fatalf("server did not survive the panic: status %d, reply %+v", status, pr)
	}
}

// TestBatcherSurvivesPanickingExec pins the batcher-level backstop: a
// panicking exec fails only its batch with ErrInferencePanic and the
// collection loop keeps serving later batches — also when the panic is
// raised on a kernel worker the exec fanned out to.
func TestBatcherSurvivesPanickingExec(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, boom := range map[string]func(){
		"exec":          func() { panic("injected inference panic") },
		"kernel worker": badSpMM,
	} {
		t.Run(name, func(t *testing.T) {
			arm := true
			b := NewBatcher(-1, 8, func(vertices []int) ([][]float64, []int, int, uint64, error) {
				if arm {
					boom()
				}
				rows := make([][]float64, len(vertices))
				classes := make([]int, len(vertices))
				for i := range vertices {
					rows[i] = []float64{1}
				}
				return rows, classes, len(vertices), 1, nil
			}, nil)
			defer b.Close()

			if _, _, _, err := b.Do(context.Background(), []int{1}); !errors.Is(err, ErrInferencePanic) {
				t.Fatalf("want ErrInferencePanic, got %v", err)
			}
			arm = false
			rows, _, gen, err := b.Do(context.Background(), []int{2})
			if err != nil || gen != 1 || len(rows) != 1 {
				t.Fatalf("batcher loop did not survive: rows %v gen %d err %v", rows, gen, err)
			}
		})
	}
}

// badSpMM multiplies by a 1,024-row CSR whose last row has an out-of-range
// column: at GOMAXPROCS > 1 the index panic is raised on an SpMM worker, not
// on the calling goroutine.
func badSpMM() {
	const n = 1024
	m := &sparse.CSR{NumRows: n, NumCols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := range m.ColIdx {
		m.RowPtr[i+1], m.ColIdx[i], m.Val[i] = i+1, i, 1
	}
	m.ColIdx[n-1] = n
	m.SpMMInto(dense.New(n, 8), dense.New(n, 8))
}

// TestBatcherGoroutineShutdown asserts batcher loops exit on Close: after
// creating, exercising, and closing a pile of batchers, the goroutine count
// returns to its baseline.
func TestBatcherGoroutineShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		b := NewBatcher(-1, 4, func(vertices []int) ([][]float64, []int, int, uint64, error) {
			rows := make([][]float64, len(vertices))
			classes := make([]int, len(vertices))
			return rows, classes, 0, 1, nil
		}, nil)
		if _, _, _, err := b.Do(context.Background(), []int{i}); err != nil {
			t.Fatal(err)
		}
		b.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after batcher shutdowns", base, runtime.NumGoroutine())
}

// tryPredictHeader is tryPredict, additionally capturing the Retry-After
// header the overload tests assert on.
func tryPredictHeader(url string, vertices []int, retryAfter *string) (int, PredictResponse, error) {
	body, _ := json.Marshal(PredictRequest{Vertices: vertices})
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, PredictResponse{}, err
	}
	defer resp.Body.Close()
	*retryAfter = resp.Header.Get("Retry-After")
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return resp.StatusCode, pr, err
		}
	}
	return resp.StatusCode, pr, nil
}
