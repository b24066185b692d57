package consensus

import (
	"errors"
	"sort"
	"time"
)

// ErrNoDocument is returned when the archive has no consensus covering the
// requested instant.
var ErrNoDocument = errors.New("consensus: no document for instant")

// History is an append-only archive of consensus documents, the raw
// material of the paper's Section VII tracking detection (three years of
// consensus history around Silk Road).
type History struct {
	docs []*Document // sorted by ValidAfter
}

// NewHistory returns an empty archive.
func NewHistory() *History { return &History{} }

// Append stores a document. Documents must be appended in ValidAfter
// order; out-of-order appends are rejected.
func (h *History) Append(doc *Document) error {
	if n := len(h.docs); n > 0 && doc.ValidAfter.Before(h.docs[n-1].ValidAfter) {
		return errors.New("consensus: out-of-order append")
	}
	h.docs = append(h.docs, doc)
	return nil
}

// Len returns the number of archived documents.
func (h *History) Len() int { return len(h.docs) }

// At returns the document valid at instant t: the latest document whose
// ValidAfter is not after t.
func (h *History) At(t time.Time) (*Document, error) {
	i := sort.Search(len(h.docs), func(i int) bool {
		return h.docs[i].ValidAfter.After(t)
	})
	if i == 0 {
		return nil, ErrNoDocument
	}
	return h.docs[i-1], nil
}

// Range returns all documents with ValidAfter in [from, to], in order.
// The returned slice aliases the archive; callers must not mutate it.
func (h *History) Range(from, to time.Time) []*Document {
	lo := sort.Search(len(h.docs), func(i int) bool {
		return !h.docs[i].ValidAfter.Before(from)
	})
	hi := sort.Search(len(h.docs), func(i int) bool {
		return h.docs[i].ValidAfter.After(to)
	})
	return h.docs[lo:hi]
}

// All returns every archived document in order. The returned slice aliases
// the archive; callers must not mutate it.
func (h *History) All() []*Document { return h.docs }
