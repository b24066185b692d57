package hsdir

import (
	"fmt"
	"slices"
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

// Reset empties the log but keeps the room its map has grown.
func (l *RequestLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.perID)
	l.total, l.found = 0, 0
}

// addLocked counts one request. Callers hold l.mu.
func (l *RequestLog) addLocked(id onion.DescriptorID, found bool) {
	l.perID[id]++
	l.total++
	if found {
		l.found++
	}
}

// Answer is one request a directory answered, as a log counts it: the
// requested descriptor ID and whether a live descriptor was stored under
// it.
type Answer struct {
	ID    onion.DescriptorID
	Found bool
}

// RecordEach counts every answer of every batch, batch by batch, under
// one lock acquisition. This is how DriveWindow counts its shards'
// answers into its network's log, a batch at a time. Counting IDs the log
// already holds performs zero heap allocations.
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
// the total request count, and the found count — which reconstructs every
// query exactly. Persisted snapshots use the packed form instead (Pack).
func (l *RequestLog) CompactState() (counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	counts = make(map[onion.DescriptorID]int, len(l.perID))
	for id, n := range l.perID {
		counts[id] = n
	}
	return counts, l.total, l.found
}

// Pack appends the log's per-ID counts to two packed columns — ids, the
// descriptor IDs end to end, and counts, one entry per ID in the same
// order — and returns them with the total and found tallies. This is the
// form trawl checkpoints persist; it is read
// under one lock acquisition and copies no map. The order is unspecified.
func (l *RequestLog) Pack(ids []byte, counts []int) ([]byte, []int, int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids = slices.Grow(ids, len(l.perID)*len(onion.DescriptorID{}))
	counts = slices.Grow(counts, len(l.perID))
	//torhs:ignore detorder the packed columns are a set: Unpack folds them back into a map, and readers compare them as sets
	for id, n := range l.perID {
		ids = onion.AppendPacked(ids, id)
		counts = append(counts, n)
	}
	return ids, counts, l.total, l.found
}

// Unpack replaces the log's contents with the packed form Pack wrote. It
// refuses, leaving the log unchanged, columns whose lengths disagree, an
// ID packed twice, a non-positive count, counts that do not sum to
// total, or a found tally outside [0, total].
func (l *RequestLog) Unpack(ids []byte, counts []int, total, found int) error {
	idList, ok := onion.UnpackIDs[onion.DescriptorID](ids)
	if !ok || len(idList) != len(counts) {
		return fmt.Errorf("hsdir: packed log has %d ID bytes for %d counts", len(ids), len(counts))
	}
	perID := make(map[onion.DescriptorID]int, len(idList))
	sum := 0
	for i, id := range idList {
		n := counts[i]
		if n <= 0 {
			return fmt.Errorf("hsdir: packed log count %d for %s", n, id.Hex())
		}
		if _, dup := perID[id]; dup {
			return fmt.Errorf("hsdir: packed log repeats %s", id.Hex())
		}
		perID[id] = n
		sum += n
	}
	if sum != total || found < 0 || found > total {
		return fmt.Errorf("hsdir: packed log counts sum to %d, total %d, found %d", sum, total, found)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.perID, l.total, l.found = perID, total, found
	return nil
}

// Merge folds o's per-descriptor-ID counts, total and found tally into
// l. This is the once-per-step merge of the trawl read-out. o's state is
// read under o's lock only and then added straight into l under l's lock
// only, so the two locks are never held together and there is no lock
// order to deadlock on. o must not be recorded into while Merge runs (a
// step network's log is complete once its window has been driven).
// Count sums are order-insensitive, so the merge preserves the
// shard-merge determinism contract. A nil o and l itself are skipped; o
// is left unchanged.
func (l *RequestLog) Merge(o *RequestLog) {
	if o == nil || o == l {
		return
	}
	o.mu.Lock()
	perID, total, found := o.perID, o.total, o.found
	o.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, n := range perID {
		l.perID[id] += n
	}
	l.total += total
	l.found += found
}
