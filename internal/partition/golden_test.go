package partition

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sagnn/internal/gen"
	"sagnn/internal/sparse"
)

// goldenScaleDiv keeps the sweep near a second. At it every preset but
// reddit-sim (128 vertices) still coarsens at k = 16, whose coarsening floor
// is 640 vertices.
const goldenScaleDiv = 32

// goldenParts pins FNV-64a hashes of the partition vectors of every preset,
// one hash per (preset, partitioner, seed) over k = 2, 4, 8, 16 in order.
// They were recorded before the set-up path lost its comparison sorts and
// maps, so a change to the partitioners' bits fails here.
var goldenParts = map[string]uint64{
	"reddit-sim/metis/seed1":  0xb7380d450c3fbe0c,
	"reddit-sim/gvb/seed1":    0x3e82f8a682f1e8eb,
	"reddit-sim/metis/seed2":  0xfe6fd850ce0c0d81,
	"reddit-sim/gvb/seed2":    0xe5998676732f5647,
	"amazon-sim/metis/seed1":  0x4667e830f181fc81,
	"amazon-sim/gvb/seed1":    0x1b0ea7707483082b,
	"amazon-sim/metis/seed2":  0x54347e0fdf0e984,
	"amazon-sim/gvb/seed2":    0xfa908a978a88248c,
	"protein-sim/metis/seed1": 0xb404293596e70d0e,
	"protein-sim/gvb/seed1":   0x33a52e8dc1d33a2a,
	"protein-sim/metis/seed2": 0xd824d972e49b4124,
	"protein-sim/gvb/seed2":   0xdfba81af16da092f,
	"papers-sim/metis/seed1":  0x127745517c6d232f,
	"papers-sim/gvb/seed1":    0x88a4f0699c1c9824,
	"papers-sim/metis/seed2":  0x933d650267a364a7,
	"papers-sim/gvb/seed2":    0x1fdbec85a14d3f21,
}

// goldenAHat pins the hashes of Â and of Â permuted by GVB{Seed: 1} at
// k = 4, values hashed by math.Float64bits.
var goldenAHat = map[string]uint64{
	"reddit-sim":           0xec29f2ecc03ebfdf,
	"reddit-sim/permuted":  0x7dca4f3f27a9276d,
	"amazon-sim":           0xd2bc7036db71f0ef,
	"amazon-sim/permuted":  0xac2b0e6ec1cc2bc2,
	"protein-sim":          0x99aabea922def256,
	"protein-sim/permuted": 0xfb5e1aaa67e96acd,
	"papers-sim":           0x4c94d2047519404e,
	"papers-sim/permuted":  0xe2448afa0de26ea6,
}

func hashInts(h hash.Hash64, xs []int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// hashCSR hashes shape, structure and value bits.
func hashCSR(m *sparse.CSR) uint64 {
	h := fnv.New64a()
	hashInts(h, []int{m.NumRows, m.NumCols})
	hashInts(h, m.RowPtr)
	hashInts(h, m.ColIdx)
	var b [8]byte
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkGolden(t *testing.T, pins map[string]uint64, key string, got uint64) {
	t.Helper()
	if want, ok := pins[key]; !ok || want != got {
		t.Errorf("%s: hash %#x, want %#x", key, got, want)
	}
}

func TestPartitionGoldens(t *testing.T) {
	for _, p := range gen.AllPresets {
		ds := gen.MustLoad(p, 1, goldenScaleDiv)
		for _, seed := range []int64{1, 2} {
			for _, pt := range []Partitioner{MetisLike{Seed: seed}, GVB{Seed: seed}} {
				h := fnv.New64a()
				for _, k := range []int{2, 4, 8, 16} {
					hashInts(h, pt.Partition(ds.G, k).Parts)
				}
				checkGolden(t, goldenParts, fmt.Sprintf("%s/%s/seed%d", p, pt.Name(), seed), h.Sum64())
			}
		}
		aHat := ds.G.NormalizedAdjacency()
		checkGolden(t, goldenAHat, string(p), hashCSR(aHat))
		perm := GVB{Seed: 1}.Partition(ds.G, 4).Perm()
		checkGolden(t, goldenAHat, string(p)+"/permuted", hashCSR(aHat.PermuteSymmetric(perm)))
	}
}
