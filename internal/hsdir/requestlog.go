package hsdir

import (
	"sync"
	"time"

	"torhs/internal/onion"
)

// Request is one descriptor fetch observed by a directory.
type Request struct {
	At     time.Time
	DescID onion.DescriptorID
	// Found reports whether a live descriptor was stored under the ID.
	// The paper found 80% of live-network requests were for descriptors
	// that were never published.
	Found bool
}

// RequestLog accumulates descriptor fetches. It is safe for concurrent
// use and supports merging into a compact log, since the trawling attack
// aggregates logs from many attacker-operated directories.
//
// Recording is append-only: the per-descriptor-ID count map is built
// lazily on the first aggregate query and maintained incrementally from
// then on, so the recording hot path (one bulk RecordBatch per driven
// window per directory) never pays a map operation per request.
//
// A log can run in compact mode (NewCompactLog, or Compact on an existing
// log): raw Request records are folded into the per-ID counts as they
// arrive and never retained, so the log's footprint is bounded by the
// number of distinct descriptor IDs instead of the request volume. Every
// aggregate query (Total, UniqueIDs, FoundFraction, CountsByID, EachCount)
// returns exactly the same values in either mode; only Requests — the raw
// arrival-order record — is unavailable (nil) on a compact log. This is
// the per-window retirement step of the streaming pipeline: request
// timestamps feed no experiment output, so dropping them preserves
// byte-identical study renders.
type RequestLog struct {
	mu       sync.Mutex
	requests []Request
	found    int
	// compact discards raw requests on arrival; total then carries the
	// request count that len(requests) carries in raw mode, and perID is
	// authoritative (always non-nil).
	compact bool
	total   int
	// perID is the lazily built per-descriptor-ID request count; nil
	// means "not built yet" (rebuilt on demand by countsLocked).
	perID map[onion.DescriptorID]int
}

// NewRequestLog returns an empty log.
func NewRequestLog() *RequestLog {
	return &RequestLog{}
}

// NewCompactLog returns an empty log in compact mode: requests fold into
// per-ID counts on arrival and are never retained.
func NewCompactLog() *RequestLog {
	return &RequestLog{compact: true, perID: make(map[onion.DescriptorID]int)}
}

// Compact switches the log to compact mode, folding any raw requests
// already recorded into the per-ID counts and releasing them. Idempotent.
func (l *RequestLog) Compact() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactLocked()
}

// compactLocked folds raw state into compact state. Callers hold l.mu.
func (l *RequestLog) compactLocked() {
	if l.compact {
		return
	}
	l.perID = l.countsLocked()
	l.total = len(l.requests)
	l.requests = nil
	l.compact = true
}

// Compacted reports whether the log runs in compact mode.
func (l *RequestLog) Compacted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compact
}

func (l *RequestLog) record(r Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.compact {
		l.perID[r.DescID]++
		l.total++
		if r.Found {
			l.found++
		}
		return
	}
	l.requests = append(l.requests, r)
	if r.Found {
		l.found++
	}
	if l.perID != nil {
		l.perID[r.DescID]++
	}
}

// Record appends a request observation. Exposed for components (such as
// the simnet client driver) that observe fetches outside a Directory.
func (l *RequestLog) Record(r Request) { l.record(r) }

// RecordBatch appends a batch of request observations, taking the lock
// exactly once. This is how DriveWindow merges a window's per-worker
// shard buffers into the per-directory logs: fetches record lock-free
// into local buffers during the window and land here in one append.
// With sufficient spare capacity the call performs zero heap allocations.
func (l *RequestLog) RecordBatch(batch []Request) {
	if len(batch) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.compact {
		for i := range batch {
			l.perID[batch[i].DescID]++
			if batch[i].Found {
				l.found++
			}
		}
		l.total += len(batch)
		return
	}
	l.requests = append(l.requests, batch...)
	for i := range batch {
		if batch[i].Found {
			l.found++
		}
		if l.perID != nil {
			l.perID[batch[i].DescID]++
		}
	}
}

// countsLocked returns the per-ID count map, building it on first use.
// Callers must hold l.mu. In compact mode perID is authoritative.
func (l *RequestLog) countsLocked() map[onion.DescriptorID]int {
	if l.perID == nil {
		l.perID = make(map[onion.DescriptorID]int, len(l.requests))
		for i := range l.requests {
			l.perID[l.requests[i].DescID]++
		}
	}
	return l.perID
}

// totalLocked returns the request count in either mode. Callers hold l.mu.
func (l *RequestLog) totalLocked() int {
	if l.compact {
		return l.total
	}
	return len(l.requests)
}

// Total returns the total number of requests.
func (l *RequestLog) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalLocked()
}

// UniqueIDs returns the number of distinct descriptor IDs requested.
func (l *RequestLog) UniqueIDs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.countsLocked())
}

// FoundFraction returns the fraction of requests that hit a stored
// descriptor (0 when the log is empty).
func (l *RequestLog) FoundFraction() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.totalLocked()
	if total == 0 {
		return 0
	}
	return float64(l.found) / float64(total)
}

// CountsByID returns a copy of the per-descriptor-ID request counts.
// Callers that only iterate should prefer the zero-copy EachCount.
func (l *RequestLog) CountsByID() map[onion.DescriptorID]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	counts := l.countsLocked()
	out := make(map[onion.DescriptorID]int, len(counts))
	for id, n := range counts {
		out[id] = n
	}
	return out
}

// EachCount visits the per-descriptor-ID request counts without copying
// the map, in unspecified order. The log's lock is held for the whole
// iteration; fn must not call back into the log.
func (l *RequestLog) EachCount(fn func(id onion.DescriptorID, n int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	//torhs:ignore detorder unordered visiting is EachCount's documented contract; deterministic consumers must fold commutatively (popularity.Resolution.addCount is the exemplar)
	for id, n := range l.countsLocked() {
		fn(id, n)
	}
}

// Requests returns a copy of all recorded requests in arrival order, or
// nil for a compact log (the raw records were retired on arrival).
func (l *RequestLog) Requests() []Request {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.compact {
		return nil
	}
	out := make([]Request, len(l.requests))
	copy(out, l.requests)
	return out
}

// CompactState returns a copy of the log's aggregate state — the per-ID
// counts, the total request count, and the found count — in either mode.
// This is the snapshot form the trawl checkpoints persist for compact
// harvests: it reconstructs every aggregate query exactly.
func (l *RequestLog) CompactState() (counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	src := l.countsLocked()
	counts = make(map[onion.DescriptorID]int, len(src))
	for id, n := range src {
		counts[id] = n
	}
	return counts, l.totalLocked(), l.found
}

// RestoreCompact replaces the log's contents with the given compact
// aggregate state (the log switches to compact mode). The counts map is
// copied; the caller keeps ownership of its argument.
func (l *RequestLog) RestoreCompact(counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests = nil
	l.compact = true
	l.total = total
	l.found = found
	l.perID = make(map[onion.DescriptorID]int, len(counts))
	for id, n := range counts {
		l.perID[id] = n
	}
}

// MergeAll folds the per-descriptor-ID counts, totals and found tallies
// of every log in others into l and leaves l compact (raw records cannot
// be reconstructed from counts). This is the one-merge-per-step path of
// the trawl read-out: each source is read under its own lock only, then
// l is updated under its lock only, so the two locks are never held
// together and there is no lock order to deadlock on. Count sums are
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
		for id, n := range o.countsLocked() {
			counts[id] += n
		}
		total += o.totalLocked()
		found += o.found
		o.mu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactLocked()
	for id, n := range counts {
		l.perID[id] += n
	}
	l.total += total
	l.found += found
}
