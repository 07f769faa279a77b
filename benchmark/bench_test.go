package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smoke shrinks a workload to test scale: tiny dataset, short warm-up, a few
// dozen requests. Warm-up keeps the epochs the correctness gate compares.
func smoke(spec workloadSpec) workloadSpec {
	spec.scaleDiv = 64
	spec.warm = serialRefs
	if spec.tcp {
		spec.warm = refEpochs
	}
	if spec.serve != nil {
		s := *spec.serve
		s.warm = 20
		spec.serve = &s
	}
	return spec
}

// TestEveryWorkloadEndToEnd runs all six workloads at smoke scale, untraced
// and traced, and requires exactly the metric names BENCHMARK.json lists,
// finite values, and no failed operation.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	traceDir := t.TempDir()
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			defs := man.EndToEnd
			if traced {
				defs = man.PerLayer
			}
			res, err := runOne(man, smoke(spec), runOptions{seed: 3, window: 200 * time.Millisecond, traced: traced, traceDir: traceDir, probeScale: 0.002})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", spec.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", spec.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: %s missing", spec.name, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: %s = %v %q", spec.name, d.Name, m.Value, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(traceDir, "trace_"+spec.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", spec.name, err)
				}
				onStack := func(name string) bool { return res.Metrics[name].Value != 0 }
				if got, want := onStack("router.hop_ms"), spec.serve != nil && spec.serve.routed; got != want {
					t.Errorf("%s: router.hop_ms reported=%v, want %v", spec.name, got, want)
				}
				if got, want := onStack("minibatch.dist_step_ms"), spec.sampled; got != want {
					t.Errorf("%s: minibatch.dist_step_ms reported=%v, want %v", spec.name, got, want)
				}
				if got, want := onStack("serve.predict_ms"), spec.serve != nil; got != want {
					t.Errorf("%s: serve.predict_ms reported=%v, want %v", spec.name, got, want)
				}
			}
		}
	}
}

// opsOf lays operations of the given durations (ms) end to end.
func opsOf(ms ...float64) []sample {
	at := time.Unix(0, 0)
	ops := make([]sample, len(ms))
	for i, d := range ms {
		end := at.Add(time.Duration(d * float64(time.Millisecond)))
		ops[i] = sample{seq: i, start: at, end: end}
		at = end
	}
	return ops
}

func TestOverBlocksIgnoresOneBurst(t *testing.T) {
	ms := make([]float64, 50)
	for i := range ms {
		ms[i] = 10
	}
	for i := 20; i < 30; i++ { // one noisy block
		ms[i] = 100
	}
	if got := median(overBlocks(opsOf(ms...), 5, medianMs)); got != 10 {
		t.Errorf("median of block medians = %v, want 10", got)
	}
	// A trailing remainder shorter than a block is dropped.
	if got := median(overBlocks(opsOf(1, 1, 2, 2, 3, 3, 99), 3, medianMs)); got != 2 {
		t.Errorf("with remainder: %v, want 2", got)
	}
	// Fewer operations than blocks: one statistic over everything.
	if got := median(overBlocks(opsOf(1, 2, 3), 5, medianMs)); got != 2 {
		t.Errorf("short input: %v, want 2", got)
	}
}

// TestStealIsTakenOutPerBlock feeds the meter a /proc/stat that loses half
// its CPU time to steal during the second of two blocks only.
func TestStealIsTakenOutPerBlock(t *testing.T) {
	var steal, total float64
	m := &stealMeter{read: func() (float64, float64, bool) { return steal, total, true }}
	m.sample()
	quiet := sample{start: time.Now()}
	time.Sleep(2 * time.Millisecond)
	quiet.end = time.Now()
	total += 200 // 2 CPUs × 1 s, nothing stolen
	m.sample()
	time.Sleep(2 * time.Millisecond)
	noisy := sample{start: time.Now()}
	time.Sleep(2 * time.Millisecond)
	noisy.end = time.Now()
	total, steal = total+200, steal+100
	m.sample()

	if s := m.share(quiet.start, quiet.end); s != 0 {
		t.Errorf("quiet block: steal share %v, want 0", s)
	}
	if s := m.share(noisy.start, noisy.end); s != 0.5 {
		t.Errorf("noisy block: steal share %v, want 0.5", s)
	}
	raw := medianMs([]sample{noisy})
	if got := m.netMedianMs([]sample{noisy}); math.Abs(got-raw/2) > 1e-9 {
		t.Errorf("noisy block: net median %v ms, want half of the raw %v ms", got, raw)
	}
	blind := &stealMeter{read: func() (float64, float64, bool) { return 0, 0, false }}
	if s := blind.share(quiet.start, noisy.end); s != 0 {
		t.Errorf("no /proc/stat: steal share %v, want 0", s)
	}
}

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p99 of 1000 samples has exactly 10 beyond it: allowed.
	if v, used := tailPercentile(xs, 0.99, 10); v != 990 || used != 0.99 {
		t.Errorf("p99 of 1000: %v at %v", v, used)
	}
	// p99 of 200 samples would have 2 beyond: back off to rank 190 = p95.
	if v, used := tailPercentile(xs[:200], 0.99, 10); v != 190 || used != 0.95 {
		t.Errorf("p99 of 200: %v at %v, want 190 at 0.95", v, used)
	}
	// Too few samples for any tail: the median, flagged with 0.
	if v, used := tailPercentile(xs[:9], 0.99, 10); v != 5 || used != 0 {
		t.Errorf("p99 of 9: %v at %v, want the median 5 at 0", v, used)
	}
}

func TestSelfTimeSubtractsChildrenTimesCalls(t *testing.T) {
	// One epoch: 3 forward + 2 backward multiplies, one GEMM pair, 3 all-reduces.
	got := selfTime(100, child{10, 5}, child{4, 1}, child{6, 1}, child{2, 3})
	if want := 100.0 - 50 - 4 - 6 - 6; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	if got := selfTime(5, child{3, 2}); got != -1 {
		t.Errorf("noise below zero must show: got %v, want -1", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if s := spreadShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread share %v, want 5.5/5.5", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	cases := []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{lower, steady(100), steady(100.5), "same"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(90), "better"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), []float64{80, 100, 120, 140, 90, 130}, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, median(c.old), median(c.new), got, c.want)
		}
	}
}

func TestRequestListsAreSeededAndDistinct(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		a, err := requestList(7, 200, perRequest, 512, zipf)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := requestList(7, 200, perRequest, 512, zipf)
		other, _ := requestList(8, 200, perRequest, 512, zipf)
		same := true
		for i, req := range a {
			seen := map[int]bool{}
			for j, v := range req {
				if v < 0 || v >= 512 || seen[v] {
					t.Fatalf("zipf=%v request %d: vertex %d out of range or repeated", zipf, i, v)
				}
				seen[v] = true
				if v != b[i][j] {
					t.Fatalf("zipf=%v: same seed, different request %d", zipf, i)
				}
				same = same && v == other[i][j]
			}
		}
		if same {
			t.Errorf("zipf=%v: seeds 7 and 8 generated the same list", zipf)
		}
	}
	if _, err := requestList(1, 1, 9, 8, false); err == nil {
		t.Error("9 distinct vertices out of 8 must be refused")
	}
}

func TestFreeAddrsAreDistinct(t *testing.T) {
	addrs, err := freeAddrs(processes)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("address %s handed out twice", a)
		}
		seen[a] = true
	}
}
