package partition

import "testing"

// TestPartOf pins the ownership accessor the serving router routes by:
// PartOf must agree with the raw assignment slice for every partitioner,
// and with the block-row ranges Offsets/Perm describe — the part owning
// vertex v is exactly the block its permuted id falls into.
func TestPartOf(t *testing.T) {
	g := ringGraph(97)
	for _, pt := range []Partitioner{Block{}, Random{Seed: 3}, MetisLike{Seed: 3}, GVB{Seed: 3}} {
		p := pt.Partition(g, 4)
		if err := assigned(p, 97); err != nil {
			t.Fatalf("%s: %v", pt.Name(), err)
		}
		perm, offsets := p.Perm(), p.Offsets()
		for v := 0; v < 97; v++ {
			part := p.PartOf(v)
			if part != p.Parts[v] {
				t.Fatalf("%s: PartOf(%d) = %d, Parts[%d] = %d", pt.Name(), v, part, v, p.Parts[v])
			}
			if part < 0 || part >= p.K {
				t.Fatalf("%s: PartOf(%d) = %d outside [0,%d)", pt.Name(), v, part, p.K)
			}
			if nv := perm[v]; nv < offsets[part] || nv >= offsets[part+1] {
				t.Fatalf("%s: vertex %d in part %d but permuted id %d outside block [%d,%d)",
					pt.Name(), v, part, nv, offsets[part], offsets[part+1])
			}
		}
	}
}

// TestPartOfOutOfRange documents the contract: lookups outside
// [0, len(Parts)) panic like the slice access they are.
func TestPartOfOutOfRange(t *testing.T) {
	p := Block{}.Partition(ringGraph(10), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("PartOf(10) on a 10-vertex partition did not panic")
		}
	}()
	_ = p.PartOf(10)
}
