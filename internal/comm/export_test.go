package comm

// capInlineWrites makes every inline write of w's wire sends stop after k
// bytes of its frame (k < 0 lifts the cap), so a test can split frames
// between the sending rank and the writer goroutine at chosen points.
func capInlineWrites(w *World, k int) { w.net.inlineCap = k }
