package distmm

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
)

// This file is the chaos conformance harness the acceptance criteria pin:
// for every engine candidate × fault site, an injected
// fault must surface as a typed *RankError within a bounded wall-clock
// timeout (never a deadlock), leak no goroutines, and leave the world and
// engine immediately reusable — the clean retry after each fault must
// reproduce the fault-free output bit for bit, which is the property the
// session-level auto-resume loop is built on.

const chaosTimeout = 10 * time.Second

// runMultiplyErr is runMultiply on the error-returning launcher: the
// assembled output on success, the typed error on a faulted run.
func runMultiplyErr(w *comm.World, e Engine, h *dense.Matrix) (*dense.Matrix, error) {
	lay := e.Layout()
	blocks := make([]*dense.Matrix, lay.Blocks())
	var mu sync.Mutex
	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
	defer cancel()
	err := w.RunCtx(ctx, func(r *comm.Rank) error {
		b := e.BlockOf(r.ID)
		lo, hi := lay.Range(b)
		z := dense.New(hi-lo, h.Cols)
		e.MultiplyInto(r, h.SliceRows(lo, hi).Clone(), z)
		mu.Lock()
		blocks[b] = z // replicas write identical data
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := dense.New(h.Rows, h.Cols)
	for b := 0; b < lay.Blocks(); b++ {
		lo, _ := lay.Range(b)
		for i := 0; i < blocks[b].Rows; i++ {
			copy(out.Row(lo+i), blocks[b].Row(i))
		}
	}
	return out, nil
}

func TestChaosConformance(t *testing.T) {
	const n, f, p = 64, 5, 4
	a := gen.ErdosRenyi(n, 5, 31).NormalizedAdjacency()
	h := dense.NewRandom(rand.New(rand.NewSource(7)), n, f, 1.0)
	baseGoroutines := runtime.NumGoroutine()

	for _, spec := range EnumerateCandidates(p) {
		if spec.Skip != "" {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			w := comm.NewWorld(p, machine.Perlmutter())
			// Build one engine per subtest and drive every run through it,
			// so retries exercise engine + world reuse, not reconstruction.
			e, err := NewEngine(w, spec.Name, spec.C, a, UniformLayout(n, p/spec.C))
			if err != nil {
				t.Fatal(err)
			}
			// The chaos sweep only injects faults into statically verified
			// schedules: a hang found here is an executor or abort-protocol
			// bug, never a malformed plan.
			if err := Verify(e.Plan()); err != nil {
				t.Fatalf("compiled plan fails Verify: %v", err)
			}
			engine := func() (*dense.Matrix, error) { return runMultiplyErr(w, e, h) }

			want, err := engine()
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			maxOps := w.Ops(0)
			if maxOps == 0 {
				t.Fatal("clean run recorded no comm ops")
			}

			// Sweep the fault across every op site (any-rank faults, so the
			// site is wherever a rank first reaches that op index), and
			// spot-check each specific rank at a mid-stream site.
			sites := make([]comm.Fault, 0, int(maxOps)+p)
			for site := int64(1); site <= maxOps; site++ {
				sites = append(sites, comm.Fault{Rank: -1, AfterOps: site})
			}
			for rank := 0; rank < p; rank++ {
				sites = append(sites, comm.Fault{Rank: rank, AfterOps: (maxOps + 1) / 2})
			}
			for _, fault := range sites {
				w.InjectFault(fault)
				if _, err := engine(); err == nil {
					t.Fatalf("fault %+v did not surface", fault)
				} else {
					var re *comm.RankError
					if !errors.As(err, &re) {
						t.Fatalf("fault %+v: want *RankError, got %T: %v", fault, err, err)
					}
					if !errors.Is(err, comm.ErrInjectedFault) {
						t.Fatalf("fault %+v: unexpected cause %v", fault, err)
					}
				}
				got, err := engine()
				if err != nil {
					t.Fatalf("retry after fault %+v: %v", fault, err)
				}
				for i, v := range want.Data {
					if got.Data[i] != v {
						t.Fatalf("fault %+v: retry output element %d differs: %v vs %v", fault, i, got.Data[i], v)
					}
				}
			}
		})
	}

	// Every rank goroutine ends with its launch; give the scheduler a bounded
	// window to converge back near the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseGoroutines+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d across chaos sweep", baseGoroutines, runtime.NumGoroutine())
}
