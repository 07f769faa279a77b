package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestWireByteOrder holds the bulk codec to the wire format's per-element
// definition, binary.LittleEndian over math.Float64bits, bit for bit with
// NaN payloads included, and the big-endian fix-up to the swap between the
// two byte orders, so both halves are checked on any host.
func TestWireByteOrder(t *testing.T) {
	vals := widePayload(3*minPooled+5, 2, 1)
	for i, bits := range []uint64{0x7ff0_0000_0000_0001, 0xfff8_0000_0000_0001, 0x7fff_ffff_ffff_ffff, 0x8000_0000_0000_0001} {
		vals[10+i] = math.Float64frombits(bits)
	}
	want := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(want[8*i:], math.Float64bits(v))
	}

	enc := append([]float64(nil), vals...)
	wireOrder(enc)
	if !bytes.Equal(floatBytes(enc), want) {
		t.Fatal("the encoded bytes differ from binary.LittleEndian.PutUint64")
	}
	dec := make([]float64, len(vals))
	copy(floatBytes(dec), want)
	wireOrder(dec)
	for i, v := range dec {
		if math.Float64bits(v) != binary.LittleEndian.Uint64(want[8*i:]) {
			t.Fatalf("element %d decodes to %#x, binary.LittleEndian.Uint64 gives %#x", i, math.Float64bits(v), binary.LittleEndian.Uint64(want[8*i:]))
		}
	}

	big := make([]byte, len(want))
	for i, v := range vals {
		binary.BigEndian.PutUint64(big[8*i:], math.Float64bits(v))
	}
	swapWords(big)
	if !bytes.Equal(big, want) {
		t.Fatal("swapWords does not turn big-endian words into little-endian ones")
	}
}
