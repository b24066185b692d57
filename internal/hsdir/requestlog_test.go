package hsdir

import (
	"math/rand"
	"reflect"
	"testing"

	"torhs/internal/onion"
)

// testRequests builds a request stream with repeated descriptor IDs and
// a mix of found/not-found hits.
func testRequests(seed int64, n, distinct int) []Answer {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]onion.DescriptorID, distinct)
	for i := range ids {
		f := onion.RandomFingerprint(rng)
		copy(ids[i][:], f[:])
	}
	reqs := make([]Answer, n)
	for i := range reqs {
		reqs[i] = Answer{ID: ids[rng.Intn(distinct)], Found: rng.Intn(5) != 0}
	}
	return reqs
}

// refLog is the plain-map reference every log query is checked against.
type refLog struct {
	counts       map[onion.DescriptorID]int
	total, found int
}

func newRefLog(reqs []Answer) *refLog {
	r := &refLog{counts: make(map[onion.DescriptorID]int)}
	for _, q := range reqs {
		r.counts[q.ID]++
		r.total++
		if q.Found {
			r.found++
		}
	}
	return r
}

// recordAll counts reqs into l in one RecordEach call, split into
// uneven batches with an empty one between them.
func recordAll(l *RequestLog, reqs []Answer) {
	k := len(reqs) / 3
	l.RecordEach([][]Answer{reqs[:k], nil, reqs[k:]})
}

// assertMatchesRef requires every query of l to agree with the reference.
func assertMatchesRef(t *testing.T, l *RequestLog, ref *refLog) {
	t.Helper()
	if got := l.Total(); got != ref.total {
		t.Errorf("Total = %d, want %d", got, ref.total)
	}
	if got := l.UniqueIDs(); got != len(ref.counts) {
		t.Errorf("UniqueIDs = %d, want %d", got, len(ref.counts))
	}
	want := 0.0
	if ref.total > 0 {
		want = float64(ref.found) / float64(ref.total)
	}
	if got := l.FoundFraction(); got != want {
		t.Errorf("FoundFraction = %v, want %v", got, want)
	}
	counts, total, found := l.CompactState()
	if !reflect.DeepEqual(counts, ref.counts) || total != ref.total || found != ref.found {
		t.Errorf("CompactState diverged: %d IDs, total %d, found %d; want %d, %d, %d",
			len(counts), total, found, len(ref.counts), ref.total, ref.found)
	}
	gotEach := make(map[onion.DescriptorID]int)
	l.EachCount(func(id onion.DescriptorID, n int) { gotEach[id] += n })
	if !reflect.DeepEqual(gotEach, ref.counts) {
		t.Error("EachCount fold diverged from the reference counts")
	}
}

// TestRequestLogMatchesPlainMap: single records and RecordEach batches
// fold into the same counts as a plain map.
func TestRequestLogMatchesPlainMap(t *testing.T) {
	reqs := testRequests(1, 5000, 60)
	l := NewRequestLog()
	for _, q := range reqs[:100] {
		l.Record(q.ID, q.Found)
	}
	recordAll(l, reqs[100:])
	assertMatchesRef(t, l, newRefLog(reqs))
}

// TestEmptyLogQueries: a fresh log answers every query with zero, and a
// found fraction of 0 rather than NaN.
func TestEmptyLogQueries(t *testing.T) {
	assertMatchesRef(t, NewRequestLog(), newRefLog(nil))
}

// TestRecordEachCountsEveryBatch: batches of any size, empty and nil
// ones included, count exactly as their concatenation does.
func TestRecordEachCountsEveryBatch(t *testing.T) {
	reqs := testRequests(2, 2000, 40)
	var batches [][]Answer
	for lo, size := 0, 1; lo < len(reqs); lo, size = lo+size, size*2 {
		hi := min(lo+size, len(reqs))
		batches = append(batches, reqs[lo:hi], reqs[hi:hi], nil)
	}
	l := NewRequestLog()
	l.RecordEach(batches)
	assertMatchesRef(t, l, newRefLog(reqs))
}

func TestCompactStateRoundTrip(t *testing.T) {
	for name, reqs := range map[string][]Answer{
		"empty":     nil,
		"populated": testRequests(3, 1500, 30),
	} {
		t.Run(name, func(t *testing.T) {
			src := NewRequestLog()
			recordAll(src, reqs)
			counts, total, found := src.CompactState()
			back := NewRequestLog()
			back.Record(onion.DescriptorID{0xFF}, true) // replaced by the restore
			back.RestoreCompact(counts, total, found)
			assertMatchesRef(t, back, newRefLog(reqs))
			// RestoreCompact copies: mutating the caller's map afterwards
			// must not reach into the log.
			for id := range counts {
				counts[id] += 99
			}
			assertMatchesRef(t, back, newRefLog(reqs))
		})
	}
}

// TestCompactStateReturnsCopy: mutating the returned counts leaves the
// log unchanged.
func TestCompactStateReturnsCopy(t *testing.T) {
	reqs := testRequests(5, 300, 10)
	l := NewRequestLog()
	recordAll(l, reqs)
	counts, _, _ := l.CompactState()
	for id := range counts {
		counts[id] = -1
	}
	assertMatchesRef(t, l, newRefLog(reqs))
}

// TestMergeAllMatchesOneLog is the trawl read-out's merge: logs folded
// into a non-empty harvest log agree with one log that counted every
// request, and the sources are left unchanged.
func TestMergeAllMatchesOneLog(t *testing.T) {
	reqs := testRequests(4, 3000, 50)
	a, b := NewRequestLog(), NewRequestLog()
	recordAll(a, reqs[:1000])
	recordAll(b, reqs[1000:2000])
	dst := NewRequestLog()
	recordAll(dst, reqs[2000:])

	dst.MergeAll([]*RequestLog{a, b})
	assertMatchesRef(t, dst, newRefLog(reqs))
	assertMatchesRef(t, a, newRefLog(reqs[:1000]))
	assertMatchesRef(t, b, newRefLog(reqs[1000:2000]))
}
