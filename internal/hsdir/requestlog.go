package hsdir

import (
	"sync"

	"torhs/internal/onion"
)

// RequestLog counts descriptor fetches per descriptor ID, with the total
// and the number that found a stored descriptor: exactly what the
// paper's popularity measurement reads off the attacker's directories
// (Section V, Table II). It keeps no per-request records, so its size is
// bounded by the number of distinct descriptor IDs, not by the request
// volume. It is safe for concurrent use, and logs merge by summing
// counts, since the trawling attack aggregates the requests of many
// attacker-operated directories.
type RequestLog struct {
	mu    sync.Mutex
	perID map[onion.DescriptorID]int
	total int
	// found counts the requests that hit a stored descriptor. The paper
	// found 80% of live-network requests were for descriptors that were
	// never published.
	found int
}

// NewRequestLog returns an empty log.
func NewRequestLog() *RequestLog {
	return &RequestLog{perID: make(map[onion.DescriptorID]int)}
}

// addLocked counts one request. Callers hold l.mu.
func (l *RequestLog) addLocked(id onion.DescriptorID, found bool) {
	l.perID[id]++
	l.total++
	if found {
		l.found++
	}
}

// Record counts one request for id; found reports whether a live
// descriptor was stored under it.
func (l *RequestLog) Record(id onion.DescriptorID, found bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked(id, found)
}

// Answer is one request a directory answered, as a log counts it: the
// requested descriptor ID and whether a live descriptor was stored under
// it.
type Answer struct {
	ID    onion.DescriptorID
	Found bool
}

// RecordEach counts every answer of every batch, batch by batch, under
// one lock acquisition. This is how DriveWindow folds a window's
// per-shard answers into its network's log. Counting IDs the log already
// holds performs zero heap allocations.
func (l *RequestLog) RecordEach(batches [][]Answer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, batch := range batches {
		for _, a := range batch {
			l.addLocked(a.ID, a.Found)
		}
	}
}

// Total returns the total number of requests.
func (l *RequestLog) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// UniqueIDs returns the number of distinct descriptor IDs requested.
func (l *RequestLog) UniqueIDs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.perID)
}

// FoundFraction returns the fraction of requests that hit a stored
// descriptor (0 when the log is empty).
func (l *RequestLog) FoundFraction() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.total == 0 {
		return 0
	}
	return float64(l.found) / float64(l.total)
}

// EachCount visits the per-descriptor-ID request counts without copying
// the map, in unspecified order. The log's lock is held for the whole
// iteration; fn must not call back into the log.
func (l *RequestLog) EachCount(fn func(id onion.DescriptorID, n int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	//torhs:ignore detorder unordered visiting is EachCount's documented contract; deterministic consumers must fold commutatively (popularity.requested.add is the exemplar)
	for id, n := range l.perID {
		fn(id, n)
	}
}

// CompactState returns a copy of the log's state — the per-ID counts,
// the total request count, and the found count. This is the snapshot
// form the trawl checkpoints and harvest intermediates persist: it
// reconstructs every query exactly.
func (l *RequestLog) CompactState() (counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	counts = make(map[onion.DescriptorID]int, len(l.perID))
	for id, n := range l.perID {
		counts[id] = n
	}
	return counts, l.total, l.found
}

// RestoreCompact replaces the log's contents with the given state. The
// counts map is copied; the caller keeps ownership of its argument.
func (l *RequestLog) RestoreCompact(counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total = total
	l.found = found
	l.perID = make(map[onion.DescriptorID]int, len(counts))
	for id, n := range counts {
		l.perID[id] = n
	}
}

// MergeAll folds the per-descriptor-ID counts, totals and found tallies
// of every log in others into l. This is the once-per-step merge of the
// trawl read-out: each source is read under its own lock only, then l is
// updated under its lock only, so the two locks are never held together
// and there is no lock order to deadlock on. Count sums are
// order-insensitive, so the merge preserves the shard-merge determinism
// contract. Nil sources and l itself are skipped; the sources are left
// unchanged.
func (l *RequestLog) MergeAll(others []*RequestLog) {
	counts := make(map[onion.DescriptorID]int)
	total, found := 0, 0
	for _, o := range others {
		if o == nil || o == l {
			continue
		}
		o.mu.Lock()
		for id, n := range o.perID {
			counts[id] += n
		}
		total += o.total
		found += o.found
		o.mu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, n := range counts {
		l.perID[id] += n
	}
	l.total += total
	l.found += found
}
