package textclass

import "math"

// nbTable is a multinomial naive-Bayes model with Laplace smoothing, laid
// out densely: index maps a feature to its row of rows, which holds one
// log-probability per class (a class that never saw the feature stores
// its unseen value). Row 0 holds every class's unseen value, so a feature
// missing from index reads it, and scoring a token is one map lookup
// however many classes there are.
type nbTable[K comparable] struct {
	classes int
	index   map[K]int32
	rows    []float64
}

// trainTable fits one class per training document, smoothing each class
// with V = its distinct features + 1. Rows number features in first-seen
// order, so training is deterministic.
func trainTable[K comparable](docs [][]K) *nbTable[K] {
	n := len(docs)
	t := &nbTable[K]{classes: n, index: make(map[K]int32)}
	counts := make([]int, n) // row-major, like rows; row 0 counts nothing
	distinct := make([]int, n)
	for c, doc := range docs {
		for _, k := range doc {
			r, ok := t.index[k]
			if !ok {
				r = int32(len(t.index) + 1)
				t.index[k] = r
				counts = append(counts, make([]int, n)...)
			}
			if counts[int(r)*n+c]++; counts[int(r)*n+c] == 1 {
				distinct[c]++
			}
		}
	}
	t.rows = make([]float64, len(counts))
	for i, cnt := range counts {
		c := i % n
		t.rows[i] = math.Log((float64(cnt) + 1) / (float64(len(docs[c])) + float64(distinct[c]+1)))
	}
	return t
}

// sums returns each class's log-probability summed over keys in order.
func (t *nbTable[K]) sums(keys []K) []float64 {
	n := t.classes
	sums := make([]float64, n)
	for _, k := range keys {
		r := int(t.index[k])
		for c, lp := range t.rows[r*n : r*n+n] {
			sums[c] += lp
		}
	}
	return sums
}
