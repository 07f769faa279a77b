package gcn

import (
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/graph"
	"sagnn/internal/machine"
)

// stepperFixture builds a small distributed trainer over a ring graph.
func stepperFixture(seed int64) *Distributed {
	return stepperFixtureOn(seed, "sparsity-aware-1d", 1)
}

// stepperFixtureOn is stepperFixture over the named engine at replication c.
func stepperFixtureOn(seed int64, engineName string, c int) *Distributed {
	const n, f, classes, p = 64, 8, 4, 4
	edges := make([][2]int, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n}, [2]int{v, (v + 7) % n})
	}
	g := graph.FromEdges(n, edges).Symmetrize()
	aHat := g.NormalizedAdjacency()
	x := dense.NewRandom(rand.New(rand.NewSource(seed)), n, f, 1)
	labels := make([]int, n)
	train := make([]int, 0, n)
	for v := 0; v < n; v++ {
		labels[v] = v % classes
		if v%2 == 0 {
			train = append(train, v)
		}
	}
	world := comm.NewWorld(p, machine.Perlmutter())
	engine, err := distmm.NewEngine(world, engineName, c, aHat, distmm.UniformLayout(n, p/c))
	if err != nil {
		panic(err)
	}
	dims := LayerDims(f, 8, classes, 3)
	return NewDistributed(world, engine, x, labels, train, dims, 0.1, seed)
}

// TestStepperMatchesBatchLaunch pins the stepper: stepping one epoch at a
// time is bit-identical to all epochs in one collective launch.
func TestStepperMatchesBatchLaunch(t *testing.T) {
	const epochs = 5
	batch := stepN(t, stepperFixture(3).Stepper(), epochs)

	st := stepperFixture(3).Stepper()
	for e := 0; e < epochs; e++ {
		res := stepN(t, st, 1)[0]
		if res.Epoch != e {
			t.Fatalf("step %d numbered %d", e, res.Epoch)
		}
		if res.Loss != batch[e].Loss || res.TrainAcc != batch[e].TrainAcc {
			t.Fatalf("epoch %d: step (%v,%v) != batch (%v,%v)",
				e, res.Loss, res.TrainAcc, batch[e].Loss, batch[e].TrainAcc)
		}
	}
	if st.Epoch() != epochs {
		t.Fatalf("epoch counter %d", st.Epoch())
	}

	// Mixed launch sizes compose to the same computation too.
	st2 := stepperFixture(3).Stepper()
	mixed := stepN(t, st2, 2)
	mixed = append(mixed, stepN(t, st2, 1)...)
	mixed = append(mixed, stepN(t, st2, 2)...)
	for e := range mixed {
		if mixed[e].Loss != batch[e].Loss {
			t.Fatalf("epoch %d: mixed %v != batch %v", e, mixed[e].Loss, batch[e].Loss)
		}
	}
}

// TestStepperSetModelRewinds checks SetModel restores training to a past
// state: replayed epochs reproduce the original trajectory bit-for-bit.
func TestStepperSetModelRewinds(t *testing.T) {
	st := stepperFixture(9).Stepper()
	stepN(t, st, 3)
	saved := st.Model().Clone()
	savedEpoch := st.Epoch()
	first := stepN(t, st, 3)

	if err := st.SetModel(saved); err != nil {
		t.Fatal(err)
	}
	st.SetEpoch(savedEpoch)
	replay := stepN(t, st, 3)
	for e := range replay {
		if replay[e] != first[e] {
			t.Fatalf("epoch %d: replay %+v != original %+v", e, replay[e], first[e])
		}
	}
}

// TestStepperSetModelValidatesShape ensures mismatched weights are rejected
// before they can corrupt rank state.
func TestStepperSetModelValidatesShape(t *testing.T) {
	st := stepperFixture(1).Stepper()
	if err := st.SetModel(NewModel(1, []int{8, 4, 4, 4})); err == nil {
		t.Fatal("SetModel accepted a mismatched layer count")
	}
	if err := st.SetModel(NewModel(1, []int{8, 4, 4})); err == nil {
		t.Fatal("SetModel accepted mismatched weight shapes")
	}
	before := st.Model().Clone()
	stepN(t, st, 1) // trainer still healthy after rejected restores
	if st.Model().MaxWeightDiff(before) == 0 {
		t.Fatal("step did not train")
	}
}

// TestModelSerializationRoundTrip pins the binary weight format.
func TestModelSerializationRoundTrip(t *testing.T) {
	m := NewModel(42, []int{16, 8, 4})
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.MaxWeightDiff(m) != 0 {
		t.Fatal("weights changed through serialization")
	}
	if err := new(Model).UnmarshalBinary(blob[:len(blob)-4]); err == nil {
		t.Fatal("accepted truncated model")
	}
	if err := new(Model).UnmarshalBinary(append(blob, 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	blob[0] ^= 0xff
	if err := new(Model).UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted bad magic")
	}
}

// TestModelDeserializeOverflow feeds a crafted header whose rows×cols wraps
// the naive byte-count check; it must error, not panic or allocate.
func TestModelDeserializeOverflow(t *testing.T) {
	blob := make([]byte, 0, 32)
	put32 := func(v uint32) {
		blob = append(blob, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put32(0x5341474d) // magic
	put32(1)          // version
	put32(1)          // layers
	put32(1 << 30)    // rows
	put32(1 << 31)    // cols: rows*cols*8 wraps mod 2^64 to 0
	if err := new(Model).UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted overflowing weight dimensions")
	}
}
