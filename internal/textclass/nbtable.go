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

// nbTrainer counts training features class by class, as the classifiers
// read them, so no training document is kept. Rows number features in
// first-seen order, so training is deterministic.
type nbTrainer[K comparable] struct {
	t        nbTable[K]
	counts   []int32 // row-major, like rows; row 0 counts nothing
	total    []int   // features counted per class
	distinct []int   // distinct features per class
}

func newTrainer[K comparable](classes int) *nbTrainer[K] {
	return &nbTrainer[K]{
		t:        nbTable[K]{classes: classes, index: make(map[K]int32)},
		counts:   make([]int32, classes),
		total:    make([]int, classes),
		distinct: make([]int, classes),
	}
}

// row returns feature k's row, adding a row for a feature not seen
// before.
func (b *nbTrainer[K]) row(k K) int32 {
	r, ok := b.t.index[k]
	if !ok {
		r = int32(len(b.t.index) + 1)
		b.t.index[k] = r
		b.counts = append(b.counts, make([]int32, b.t.classes)...)
	}
	return r
}

// count counts one occurrence in class c of the feature in row r.
func (b *nbTrainer[K]) count(c int, r int32) {
	i := int(r)*b.t.classes + c
	if b.counts[i]++; b.counts[i] == 1 {
		b.distinct[c]++
	}
	b.total[c]++
}

// table fits the model on the counts, smoothing each class with V = its
// distinct features + 1.
func (b *nbTrainer[K]) table() *nbTable[K] {
	n := b.t.classes
	b.t.rows = make([]float64, len(b.counts))
	for i, cnt := range b.counts {
		c := i % n
		b.t.rows[i] = math.Log((float64(cnt) + 1) / (float64(b.total[c]) + float64(b.distinct[c]+1)))
	}
	return &b.t
}

// row returns the log-probabilities, one per class, of the feature in
// row r of rows (index's value for it; 0, the unseen row, for a feature
// never trained).
func (t *nbTable[K]) row(r int32) []float64 {
	n := t.classes
	return t.rows[int(r)*n : int(r)*n+n]
}
