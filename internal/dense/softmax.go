package dense

import "math"

// SoftmaxRows applies a numerically-stable softmax to each row of m in
// place, turning the final GCN layer's logits into class probabilities.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		SoftmaxRow(m.Row(i))
	}
}

// SoftmaxRow is SoftmaxRows for one row: the training loss applies it to
// the rows it trains on only.
func SoftmaxRow(row []float64) {
	maxv := math.Inf(-1)
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for j, v := range row {
		e := math.Exp(v - maxv)
		row[j] = e
		sum += e
	}
	inv := 1.0 / sum
	for j := range row {
		row[j] *= inv
	}
}

// Accuracy returns the fraction of rows in mask whose argmax equals the
// label.
func Accuracy(probs *Matrix, labels []int, mask []int) float64 {
	if len(mask) == 0 {
		return 0
	}
	correct := 0
	for _, i := range mask {
		row := probs.Row(i)
		best, bestv := 0, row[0]
		for j, v := range row {
			if v > bestv {
				best, bestv = j, v
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(mask))
}
