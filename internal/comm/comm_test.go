package comm

import (
	"sync"
	"testing"

	"sagnn/internal/machine"
)

func testWorld(p int) *World { return NewWorld(p, machine.Perlmutter()) }

func TestRunAllRanksExecute(t *testing.T) {
	w := testWorld(8)
	var mu sync.Mutex
	seen := map[int]bool{}
	w.Run(func(r *Rank) {
		mu.Lock()
		seen[r.ID] = true
		mu.Unlock()
	})
	if len(seen) != 8 {
		t.Fatalf("ranks seen: %d", len(seen))
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := testWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic propagation")
		}
	}()
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			panic("boom")
		}
	})
}

func TestGroupIndexOfPanicsForOutsider(t *testing.T) {
	w := testWorld(2)
	g := w.NewGroup([]int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			g.IndexOf(r)
		}
	})
}

// TestVolumeSnapshotSummaries pins the over-rank summaries Table 2 reads
// from a snapshot, and that a snapshot minus itself is zero.
func TestVolumeSnapshotSummaries(t *testing.T) {
	s := newStats(2)
	s.addSend(0, 100, 1)
	s.addSend(1, 300, 1)
	s.addRecv(0, 300)
	v := s.Snapshot()
	if v.MaxSent() != 300 || v.TotalSent() != 400 || v.TotalRecv() != 300 {
		t.Fatalf("max %d total %d recv %d", v.MaxSent(), v.TotalSent(), v.TotalRecv())
	}
	if v.AvgSent() != 200 {
		t.Fatalf("AvgSent %v", v.AvgSent())
	}
	if z := v.Sub(v); z.TotalSent() != 0 || z.MaxSent() != 0 || z.AvgSent() != 0 {
		t.Fatal("snapshot minus itself is not zero")
	}
}

func TestSelfSendPanics(t *testing.T) {
	w := testWorld(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(r *Rank) {
		r.Send(0, 0, nil, "p2p")
	})
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty world")
		}
	}()
	NewWorld(0, machine.Perlmutter())
}

func TestNewGroupValidation(t *testing.T) {
	w := testWorld(2)
	for _, members := range [][]int{{0, 2}, {0, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for members %v", members)
				}
			}()
			w.NewGroup(members)
		}()
	}
}

// TestShapeMisusePanics: a mis-sized destination is a caller bug; each
// collective panics rather than landing a truncated payload.
func TestShapeMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(g *Group, r *Rank){
		"bcast dst":        func(g *Group, r *Rank) { g.BcastFloatsInto(r, 0, []float64{1, 2}, make([]float64, 1), "bcast") },
		"allreduce out":    func(g *Group, r *Rank) { g.AllReduceSumInto(r, []float64{1, 2}, make([]float64, 1), "allreduce") },
		"allreduce alias":  func(g *Group, r *Rank) { v := []float64{1}; g.AllReduceSumInto(r, v, v, "allreduce") },
		"alltoallv send":   func(g *Group, r *Rank) { g.AllToAllvInto(r, nil, make([][]float64, 1), "alltoall") },
		"alltoallv recv":   func(g *Group, r *Rank) { g.AllToAllvInto(r, make([][]float64, 1), nil, "alltoall") },
		"alltoallv bucket": func(g *Group, r *Rank) { g.AllToAllvInto(r, [][]float64{{1}}, [][]float64{nil}, "alltoall") },
	} {
		w := testWorld(1)
		if err := w.RunErr(func(r *Rank) error { misuse(w.WorldGroup(), r); return nil }); err == nil {
			t.Errorf("%s: misuse did not panic", name)
		}
	}
}
