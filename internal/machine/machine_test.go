package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBcastTime(t *testing.T) {
	p := Perlmutter()
	if p.BcastTime(1000, 1) != 0 {
		t.Fatal("single-rank bcast must be free")
	}
	t2 := p.BcastTime(1<<20, 2)
	t16 := p.BcastTime(1<<20, 16)
	if t16 <= t2 {
		t.Fatal("bcast latency must grow with group size")
	}
	// bandwidth term paid once: doubling data roughly doubles large-message
	// time for fixed group
	big := p.BcastTime(1<<28, 4)
	bigger := p.BcastTime(1<<29, 4)
	if bigger/big < 1.9 || bigger/big > 2.1 {
		t.Fatalf("bcast should be bandwidth-dominated for large msgs: ratio %v", bigger/big)
	}
}

func TestAllReduceTimeRingShape(t *testing.T) {
	p := Perlmutter()
	if p.AllReduceTime(100, 1) != 0 {
		t.Fatal("trivial group")
	}
	// bandwidth term approaches 2nβ as g grows
	n := int64(1 << 26)
	t64 := p.AllReduceTime(n, 64)
	want := 2 * float64(n) * p.Beta
	if t64 < want*0.9 || t64 > want*1.3 {
		t.Fatalf("allreduce(64) = %v, want ≈ %v", t64, want)
	}
}

func TestAllToAllvTimeMonotone(t *testing.T) {
	p := Perlmutter()
	f := func(a, b uint32, partners uint8) bool {
		t1 := p.AllToAllvTime(int64(a), int64(b), int(partners))
		t2 := p.AllToAllvTime(int64(a)*2, int64(b), int(partners))
		return t2 >= t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// latency scales with partner count
	if p.AllToAllvTime(0, 0, 10) <= p.AllToAllvTime(0, 0, 1) {
		t.Fatal("more partners must cost more latency")
	}
}

func TestP2PAndComputeTimes(t *testing.T) {
	p := Perlmutter()
	if p.P2PTime(0) != p.Alpha {
		t.Fatal("zero-byte p2p = alpha")
	}
	if p.SpMMTime(int64(p.SpMMRate)) != 1.0 {
		t.Fatal("SpMMTime wrong scale")
	}
	if p.GEMMTime(int64(p.GEMMRate)) != 1.0 {
		t.Fatal("GEMMTime wrong scale")
	}
	if p.CopyTime(int64(p.MemBandwidth)) != 2.0 {
		t.Fatal("CopyTime must charge read+write")
	}
}

func TestLedgerPhaseMaxAndTotal(t *testing.T) {
	l := NewLedger(3)
	l.Add(0, "bcast", 1.0)
	l.Add(1, "bcast", 2.0)
	l.Add(2, "local", 5.0)
	l.Add(0, "local", 1.0)
	s := l.Snapshot()
	if s.PhaseMax("bcast") != 2.0 {
		t.Fatalf("PhaseMax=%v", s.PhaseMax("bcast"))
	}
	if s.PhaseMax("local") != 5.0 {
		t.Fatal("local max")
	}
	if math.Abs(s.Total()-7.0) > 1e-12 {
		t.Fatalf("Total=%v want 7", s.Total())
	}
	if s.RankTotal(0) != 2.0 {
		t.Fatalf("RankTotal(0)=%v", s.RankTotal(0))
	}
	if bd := s.Breakdown(); len(bd) != 2 || bd["bcast"] != 2.0 || bd["local"] != 5.0 {
		t.Fatalf("Breakdown=%v", bd)
	}
}

func TestLedgerAccumulates(t *testing.T) {
	l := NewLedger(1)
	l.Add(0, "p", 1)
	l.Add(0, "p", 2)
	if l.Snapshot().PhaseMax("p") != 3 {
		t.Fatal("Add must accumulate")
	}
}

func TestLedgerBadRankPanics(t *testing.T) {
	l := NewLedger(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Add(5, "p", 1)
}

func TestLedgerConcurrentAdds(t *testing.T) {
	l := NewLedger(8)
	done := make(chan struct{})
	for r := 0; r < 8; r++ {
		go func(r int) {
			for i := 0; i < 100; i++ {
				l.Add(r, "phase", 0.01)
			}
			done <- struct{}{}
		}(r)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := l.Snapshot().PhaseMax("phase"); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("concurrent adds lost updates: %v", got)
	}
}
