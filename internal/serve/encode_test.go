package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestEncodeRowsMatchesJSON encodes a table of several stripes, with rows of
// varying width (empty ones too) and values drawn across every form
// encoding/json switches between: each row's text must be json.Marshal's,
// and the stripes must close up into one gap-free buffer.
func TestEncodeRowsMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []float64{0, math.Copysign(0, -1), 1, 1e-6, 9.999999e-7, 1e-7, 5e-324, 9.99e20, 1e21,
		-1.2345678901234567e-6, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	probs := make([][]float64, 3*encodeStripeRows+17)
	for v := range probs {
		probs[v] = make([]float64, rng.Intn(30))
		for j := range probs[v] {
			switch rng.Intn(3) {
			case 0:
				probs[v][j] = edges[rng.Intn(len(edges))]
			case 1:
				probs[v][j] = rng.Float64()
			default:
				probs[v][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
		}
	}
	text, at := encodeRows(probs)
	if len(at) != len(probs)+1 || at[0] != 0 || at[len(probs)] != len(text) {
		t.Fatalf("%d offsets for %d rows, first %d, last %d of %d bytes", len(at), len(probs), at[0], at[len(at)-1], len(text))
	}
	for v, row := range probs {
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if got := text[at[v]:at[v+1]]; !bytes.Equal(got, want) {
			t.Fatalf("row %d\n got %s\nwant %s", v, got, want)
		}
	}
	if text, at := encodeRows(nil); len(text) != 0 || len(at) != 1 {
		t.Fatalf("empty table: %d bytes, %d offsets", len(text), len(at))
	}
}
