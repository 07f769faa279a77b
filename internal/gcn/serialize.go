package gcn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"sagnn/internal/dense"
)

// Binary model format (little-endian):
//
//	magic  uint32  "SAGM"
//	ver    uint32  1
//	layers uint32
//	per layer: rows uint32, cols uint32, rows*cols float64 bits
//
// The format is self-delimiting, so it can be embedded in larger blobs
// (checkpoints prepend their own header).
const (
	modelMagic   = 0x5341474d // "SAGM"
	modelVersion = 1
)

// MarshalBinary serialises the model's weights.
func (m *Model) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	m.writeTo(&buf)
	return buf.Bytes(), nil
}

func (m *Model) writeTo(buf *bytes.Buffer) {
	le := binary.LittleEndian
	var scratch [8]byte
	put32 := func(v uint32) {
		le.PutUint32(scratch[:4], v)
		buf.Write(scratch[:4])
	}
	put32(modelMagic)
	put32(modelVersion)
	put32(uint32(len(m.Weights)))
	for _, w := range m.Weights {
		put32(uint32(w.Rows))
		put32(uint32(w.Cols))
		for _, v := range w.Data {
			le.PutUint64(scratch[:], math.Float64bits(v))
			buf.Write(scratch[:])
		}
	}
}

// UnmarshalBinary replaces the model's weights with the serialised set.
// It consumes exactly one model record; trailing bytes are an error (use
// readModel to parse embedded records).
func (m *Model) UnmarshalBinary(data []byte) error {
	parsed, rest, err := readModel(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("gcn: %d trailing bytes after model", len(rest))
	}
	m.Weights = parsed.Weights
	return nil
}

// readModel parses one model record from data and returns the remainder.
func readModel(data []byte) (*Model, []byte, error) {
	le := binary.LittleEndian
	take32 := func() (uint32, error) {
		if len(data) < 4 {
			return 0, fmt.Errorf("gcn: truncated model data")
		}
		v := le.Uint32(data[:4])
		data = data[4:]
		return v, nil
	}
	magic, err := take32()
	if err != nil {
		return nil, nil, err
	}
	if magic != modelMagic {
		return nil, nil, fmt.Errorf("gcn: bad model magic %#x", magic)
	}
	ver, err := take32()
	if err != nil {
		return nil, nil, err
	}
	if ver != modelVersion {
		return nil, nil, fmt.Errorf("gcn: unsupported model version %d", ver)
	}
	layers, err := take32()
	if err != nil {
		return nil, nil, err
	}
	// A layer is at least its 8-byte shape and one weight, so the remaining
	// payload bounds the layer count (and the slice allocated for it).
	if layers == 0 || uint64(layers) > uint64(len(data))/16 {
		return nil, nil, fmt.Errorf("gcn: implausible layer count %d for %d bytes", layers, len(data))
	}
	m := &Model{Weights: make([]*dense.Matrix, 0, layers)}
	for l := uint32(0); l < layers; l++ {
		rows, err := take32()
		if err != nil {
			return nil, nil, err
		}
		cols, err := take32()
		if err != nil {
			return nil, nil, err
		}
		// Guard the size computation against overflow before trusting it: a
		// crafted rows×cols can wrap 8*n past the truncation check and panic
		// in make. The remaining payload bounds n for free.
		if rows == 0 || cols == 0 || uint64(rows)*uint64(cols) > uint64(len(data))/8 {
			return nil, nil, fmt.Errorf("gcn: truncated weight matrix %dx%d", rows, cols)
		}
		n := int(rows) * int(cols)
		w := dense.New(int(rows), int(cols))
		for i := 0; i < n; i++ {
			w.Data[i] = math.Float64frombits(le.Uint64(data[8*i : 8*i+8]))
		}
		data = data[8*n:]
		m.Weights = append(m.Weights, w)
	}
	return m, data, nil
}
