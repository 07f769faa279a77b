package serve

import (
	"math"
	"strconv"

	"sagnn/internal/par"
)

// A generation's probability rows never change, so their JSON text is
// written once, when the generation is built, and a /predict reply splices
// the requested rows' bytes instead of encoding floats per request. The text
// is exactly what encoding/json writes for each row, so the replies are the
// bytes json.Encoder would produce for the same PredictResponse.

// maxFloatJSON bounds the bytes appendFloat writes for one finite float64: a
// sign, "0.", five zeros and 17 significant digits just above 1e-6 (below
// it the 'e' form is at most "-d.dddddddddddddddde-308", 24 bytes), and at
// most 21 integer digits below 1e21.
const maxFloatJSON = 25

// rowBound bounds the bytes appendRow writes for a row of k finite values:
// the brackets, k values and the commas between them.
func rowBound(k int) int { return 2 + k*maxFloatJSON + max(k-1, 0) }

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'f' form, or in 'e' form below 1e-6 or
// at or above 1e21 with a one-digit negative exponent's zero dropped
// (e-07 → e-7). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendRow appends row as encoding/json writes a non-nil []float64 of
// finite values.
func appendRow(b []byte, row []float64) []byte {
	b = append(b, '[')
	for i, p := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, p)
	}
	return append(b, ']')
}

// encodeStripeRows is the number of rows one par.For index encodes.
const encodeStripeRows = 256

// encodeRows writes every row of probs (all finite) as JSON into one buffer
// of its exact size: row v is text[at[v]:at[v+1]]. Stripes of rows are
// encoded in parallel, each into its own region of a scratch buffer sized
// once by rowBound, then copied in order into the text. The text lives as
// long as its generation and rowBound overshoots probability rows by about
// 28 %, so that slack is left in the scratch, which set-up discards.
func encodeRows(probs [][]float64) (text []byte, at []int) {
	n := len(probs)
	stripes := (n + encodeStripeRows - 1) / encodeStripeRows
	rows := func(s int) (lo, hi int) { return s * encodeStripeRows, min(n, (s+1)*encodeStripeRows) }
	region := make([]int, stripes+1) // stripe s writes scratch[region[s]:region[s+1]]
	for s := 0; s < stripes; s++ {
		lo, hi := rows(s)
		region[s+1] = region[s]
		for _, row := range probs[lo:hi] {
			region[s+1] += rowBound(len(row))
		}
	}
	scratch := make([]byte, region[stripes])
	at = make([]int, n+1)
	// First at[v+1] is row v's end relative to its stripe's region.
	par.For(stripes, func(s int) {
		lo, hi := rows(s)
		out := scratch[region[s]:region[s]:region[s+1]]
		for v := lo; v < hi; v++ {
			out = appendRow(out, probs[v])
			at[v+1] = len(out)
		}
		if cap(out) != region[s+1]-region[s] {
			panic("serve: a row's JSON outgrew rowBound")
		}
	})
	size := 0
	for s := 0; s < stripes; s++ {
		_, hi := rows(s)
		size += at[hi]
	}
	text = make([]byte, size)
	for s, end := 0, 0; s < stripes; s++ {
		lo, hi := rows(s)
		copy(text[end:], scratch[region[s]:region[s]+at[hi]])
		for v := lo; v < hi; v++ {
			at[v+1] += end
		}
		end = at[hi]
	}
	return text, at
}

// The fixed text of a /predict reply, as json.Encoder frames a
// PredictResponse, trailing newline included.
const (
	replyGeneration = `{"generation":`
	replyClasses    = `,"classes":[`
	replyProbs      = `],"probs":[`
	replyEnd        = "]}\n"
)

// reply builds the /predict reply for vertices (validated) under this
// generation in one buffer of its final size: the PredictResponse that
// PredictInto would fill, as json.Encoder writes it, with each probability
// row spliced from the generation's text.
func (st *modelState) reply(vertices []int) []byte {
	// 20 bytes bound a uint64 and, with its comma, a class index.
	size := len(replyGeneration+replyClasses+replyProbs+replyEnd) + 20 + 21*len(vertices)
	for _, v := range vertices {
		size += st.at[v+1] - st.at[v] + 1
	}
	b := make([]byte, 0, size)
	b = append(b, replyGeneration...)
	b = strconv.AppendUint(b, st.generation, 10)
	b = append(b, replyClasses...)
	for i, v := range vertices {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(st.classes[v]), 10)
	}
	b = append(b, replyProbs...)
	for i, v := range vertices {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, st.text[st.at[v]:st.at[v+1]]...)
	}
	return append(b, replyEnd...)
}
