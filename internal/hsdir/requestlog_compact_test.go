package hsdir

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"torhs/internal/onion"
)

// compactTestRequests builds a request stream with repeated descriptor
// IDs and a mix of found/not-found hits.
func compactTestRequests(seed int64, n, distinct int) []Request {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]onion.DescriptorID, distinct)
	for i := range ids {
		f := onion.RandomFingerprint(rng)
		copy(ids[i][:], f[:])
	}
	at := time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			At:     at.Add(time.Duration(i) * time.Second),
			DescID: ids[rng.Intn(distinct)],
			Found:  rng.Intn(5) != 0,
		}
	}
	return reqs
}

// assertSameAggregates requires every aggregate query of the two logs to
// agree — the compact-mode contract.
func assertSameAggregates(t *testing.T, raw, compact *RequestLog) {
	t.Helper()
	if got, want := compact.Total(), raw.Total(); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got, want := compact.UniqueIDs(), raw.UniqueIDs(); got != want {
		t.Errorf("UniqueIDs = %d, want %d", got, want)
	}
	if got, want := compact.FoundFraction(), raw.FoundFraction(); got != want {
		t.Errorf("FoundFraction = %v, want %v", got, want)
	}
	if got, want := compact.CountsByID(), raw.CountsByID(); !reflect.DeepEqual(got, want) {
		t.Errorf("CountsByID diverged: %d vs %d entries", len(got), len(want))
	}
	gotEach := make(map[onion.DescriptorID]int)
	compact.EachCount(func(id onion.DescriptorID, n int) { gotEach[id] += n })
	if want := raw.CountsByID(); !reflect.DeepEqual(gotEach, want) {
		t.Error("EachCount fold diverged from the raw counts")
	}
}

func TestCompactLogAggregatesMatchRaw(t *testing.T) {
	reqs := compactTestRequests(1, 5000, 60)
	raw, compact := NewRequestLog(), NewCompactLog()
	// Interleave single records and batches so both arrival paths fold.
	for i := 0; i < 100; i++ {
		raw.Record(reqs[i])
		compact.Record(reqs[i])
	}
	raw.RecordBatch(reqs[100:])
	compact.RecordBatch(reqs[100:])

	assertSameAggregates(t, raw, compact)
	if !compact.Compacted() || raw.Compacted() {
		t.Fatal("Compacted() mode flags wrong")
	}
	if got := raw.Requests(); len(got) != len(reqs) {
		t.Fatalf("raw log retained %d requests, want %d", len(got), len(reqs))
	}
	if got := compact.Requests(); got != nil {
		t.Fatalf("compact log returned %d raw requests, want nil", len(got))
	}
}

func TestCompactMidStreamMatchesRaw(t *testing.T) {
	reqs := compactTestRequests(2, 2000, 40)
	raw, mid := NewRequestLog(), NewRequestLog()
	raw.RecordBatch(reqs)
	// mid folds half raw, compacts (retiring the records), then folds the
	// rest in compact mode — the trawl per-step retirement shape.
	mid.RecordBatch(reqs[:1000])
	mid.Compact()
	mid.Compact() // idempotent
	if !mid.Compacted() {
		t.Fatal("Compact did not switch the log to compact mode")
	}
	mid.RecordBatch(reqs[1000:])
	assertSameAggregates(t, raw, mid)
}

func TestCompactStateRoundTrip(t *testing.T) {
	reqs := compactTestRequests(3, 1500, 30)
	for _, mode := range []string{"raw", "compact"} {
		t.Run(mode, func(t *testing.T) {
			src := NewRequestLog()
			if mode == "compact" {
				src = NewCompactLog()
			}
			src.RecordBatch(reqs)
			counts, total, found := src.CompactState()
			back := NewRequestLog()
			back.RestoreCompact(counts, total, found)
			assertSameAggregates(t, src, back)
			// RestoreCompact copies: mutating the caller's map afterwards
			// must not reach into the log.
			for id := range counts {
				counts[id] += 99
				break
			}
			if !reflect.DeepEqual(back.CountsByID(), src.CountsByID()) {
				t.Fatal("RestoreCompact aliased the caller's counts map")
			}
		})
	}
}

// TestMergeMixedCompactAndRaw: raw directory logs and compact logs fold
// together through the per-ID counts, leaving a raw destination compact
// with the aggregates of one log that recorded every request.
func TestMergeMixedCompactAndRaw(t *testing.T) {
	reqs := compactTestRequests(4, 3000, 50)
	ref := NewRequestLog()
	ref.RecordBatch(reqs)

	rawSrc := NewRequestLog()
	rawSrc.RecordBatch(reqs[:1000])
	compactSrc := NewCompactLog()
	compactSrc.RecordBatch(reqs[1000:2000])
	dst := NewRequestLog()
	dst.RecordBatch(reqs[2000:])

	dst.MergeAll([]*RequestLog{rawSrc, compactSrc})
	if !dst.Compacted() {
		t.Fatal("merge left the destination raw")
	}
	assertSameAggregates(t, ref, dst)
}

// TestMergeAllRawLogsCompactsDestination: even when every operand is
// raw, MergeAll folds counts and leaves the destination compact, while
// the raw sources keep their request records.
func TestMergeAllRawLogsCompactsDestination(t *testing.T) {
	reqs := compactTestRequests(3, 2000, 40)
	ref := NewRequestLog()
	ref.RecordBatch(reqs)

	a, b := NewRequestLog(), NewRequestLog()
	a.RecordBatch(reqs[:700])
	b.RecordBatch(reqs[700:1500])
	dst := NewRequestLog()
	dst.RecordBatch(reqs[1500:])

	dst.MergeAll([]*RequestLog{a, b})
	if !dst.Compacted() {
		t.Fatal("merge of raw logs left the destination raw")
	}
	assertSameAggregates(t, ref, dst)
	if a.Compacted() || b.Compacted() {
		t.Fatal("merge compacted its sources")
	}
	if len(a.Requests()) != 700 || len(b.Requests()) != 800 {
		t.Fatalf("merge mutated its sources: %d, %d records", len(a.Requests()), len(b.Requests()))
	}
}

// TestMergeAllCompactLogs is the trawl read-out's merge: compact
// per-directory logs folded into a compact harvest log agree with one
// raw log that recorded every request.
func TestMergeAllCompactLogs(t *testing.T) {
	reqs := compactTestRequests(4, 3000, 50)
	ref := NewRequestLog()
	ref.RecordBatch(reqs)

	a, b := NewCompactLog(), NewCompactLog()
	a.RecordBatch(reqs[:1000])
	b.RecordBatch(reqs[1000:2000])
	dst := NewCompactLog()
	dst.RecordBatch(reqs[2000:])

	dst.MergeAll([]*RequestLog{a, b})
	if !dst.Compacted() {
		t.Fatal("merge left the destination raw")
	}
	assertSameAggregates(t, ref, dst)
	if a.Total() != 1000 || b.Total() != 1000 {
		t.Fatalf("merge mutated its sources: totals %d, %d", a.Total(), b.Total())
	}
}
