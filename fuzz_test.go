package sagnn

import (
	"bytes"
	"runtime"
	"testing"

	"sagnn/internal/dense"
	"sagnn/internal/gcn"
)

// FuzzLoadServableModel feeds arbitrary bytes to the decoder behind every
// hot-swap endpoint (serve's and the router's /admin/swap). Whatever the
// bytes, it must not panic and must not allocate on the strength of a header
// alone; and whatever it accepts must be servable and canonical: the layer
// chain composes under the artifact's variant (so the first /predict cannot
// fail in a GEMM), and the artifact re-marshals to exactly the input.
func FuzzLoadServableModel(f *testing.F) {
	marshal := func(m interface{ MarshalBinary() ([]byte, error) }) []byte {
		b, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	dims := gcn.LayerDims(8, 8, 4, 2)
	model := marshal(&Model{m: gcn.NewModel(6, dims)})
	checkpoint := marshal(&Checkpoint{epoch: 7, sage: true, model: gcn.NewModelVariant(6, dims, gcn.SAGEConv)})
	f.Add(model)
	f.Add(checkpoint)
	f.Add(checkpoint[:len(checkpoint)-5]) // truncated
	// Layers 8×16, 7×16, 16×4: first and last fit a dataset, the chain breaks.
	f.Add(marshal(&Model{m: &gcn.Model{Weights: []*dense.Matrix{dense.New(8, 16), dense.New(7, 16), dense.New(16, 4)}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, epoch, err := LoadServableModel(data)
		runtime.ReadMemStats(&after)
		// Weights are as large as their encoding and a checkpoint's model is
		// cloned once; the constant covers the runtime's own noise.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+(1<<20)); got > limit {
			t.Fatalf("decoder allocated %d bytes for %d input bytes (limit %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		if err := m.m.CheckChain(m.variant()); err != nil {
			t.Fatalf("accepted a model that cannot run a forward pass: %v", err)
		}
		var again []byte
		if epoch < 0 {
			again, err = m.MarshalBinary()
		} else {
			again, err = (&Checkpoint{epoch: epoch, sage: m.sage, model: m.m}).MarshalBinary()
		}
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted artifact (%d bytes) re-marshals to %d different bytes (err %v)", len(data), len(again), err)
		}
	})
}
