package hsdir

import (
	"maps"
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
		record(l, q.ID, q.Found)
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

// TestCompactStateRoundTrip: a log survives its persisted form — Pack,
// then Unpack into a log holding other counts — with every query and its
// compact state intact, and the restored log shares no storage with the
// columns it came from.
func TestCompactStateRoundTrip(t *testing.T) {
	for name, reqs := range map[string][]Answer{
		"empty":     nil,
		"populated": testRequests(3, 1500, 30),
	} {
		t.Run(name, func(t *testing.T) {
			src := NewRequestLog()
			recordAll(src, reqs)
			ids, counts, total, found := src.Pack(nil, nil)
			back := NewRequestLog()
			record(back, onion.DescriptorID{0xFF}, true) // replaced by the unpack
			if err := back.Unpack(ids, counts, total, found); err != nil {
				t.Fatal(err)
			}
			assertMatchesRef(t, back, newRefLog(reqs))
			want, _, _ := src.CompactState()
			if got, _, _ := back.CompactState(); !maps.Equal(got, want) {
				t.Fatalf("compact state moved: %d vs %d IDs", len(got), len(want))
			}
			for i := range counts {
				counts[i] += 99
			}
			assertMatchesRef(t, back, newRefLog(reqs))
		})
	}
}

// TestUnpackRefusesBrokenColumns: Unpack refuses columns that do not
// hold together and leaves the log unchanged.
func TestUnpackRefusesBrokenColumns(t *testing.T) {
	src := NewRequestLog()
	recordAll(src, testRequests(4, 200, 10))
	ids, counts, total, found := src.Pack(nil, nil)
	for name, args := range map[string]struct {
		ids          []byte
		counts       []int
		total, found int
	}{
		"partial ID":      {ids[1:], counts, total, found},
		"short counts":    {ids, counts[1:], total, found},
		"repeated ID":     {append(ids[:len(ids):len(ids)], ids[:20]...), append(counts[:len(counts):len(counts)], 1), total + 1, found},
		"zero count":      {ids, append([]int{0}, counts[1:]...), total - counts[0], found},
		"total mismatch":  {ids, counts, total + 1, found},
		"found too large": {ids, counts, total, total + 1},
	} {
		t.Run(name, func(t *testing.T) {
			l := NewRequestLog()
			record(l, onion.DescriptorID{0xFF}, true)
			if err := l.Unpack(args.ids, args.counts, args.total, args.found); err == nil {
				t.Fatal("Unpack accepted broken columns")
			}
			if l.Total() != 1 || l.UniqueIDs() != 1 {
				t.Fatalf("a refused Unpack changed the log: total %d, %d IDs", l.Total(), l.UniqueIDs())
			}
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

// TestMergeMatchesOneLog is the trawl read-out's merge: logs folded
// into a non-empty harvest log agree with one log that counted every
// request, and the sources are left unchanged.
func TestMergeMatchesOneLog(t *testing.T) {
	reqs := testRequests(4, 3000, 50)
	a, b := NewRequestLog(), NewRequestLog()
	recordAll(a, reqs[:1000])
	recordAll(b, reqs[1000:2000])
	dst := NewRequestLog()
	recordAll(dst, reqs[2000:])

	dst.Merge(a)
	dst.Merge(b)
	assertMatchesRef(t, dst, newRefLog(reqs))
	assertMatchesRef(t, a, newRefLog(reqs[:1000]))
	assertMatchesRef(t, b, newRefLog(reqs[1000:2000]))
}

// mergeAllOracle is the copy-then-fold merge Merge replaced: every
// source's counts are first summed into a fresh map under that source's
// lock, and the map is then folded into l under l's lock.
func mergeAllOracle(l *RequestLog, others []*RequestLog) {
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

// TestMergeMatchesCopyThenFoldOracle folds the same sources, nil and
// the destination itself among them, into two equal logs: one source at
// a time through Merge and all at once through the copy-then-fold
// oracle. Both must end in the same per-ID counts, total and found tally.
func TestMergeMatchesCopyThenFoldOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		reqs := testRequests(seed, 4000, 40+int(seed)*30)
		got, want := NewRequestLog(), NewRequestLog()
		recordAll(got, reqs[:500])
		recordAll(want, reqs[:500])
		sources := []*RequestLog{nil, got}
		for lo := 500; lo < len(reqs); lo += 700 {
			src := NewRequestLog()
			recordAll(src, reqs[lo:min(lo+700, len(reqs))])
			sources = append(sources, src)
		}
		for _, src := range sources {
			got.Merge(src)
		}
		sources[1] = want
		mergeAllOracle(want, sources)
		gc, gt, gf := got.CompactState()
		wc, wt, wf := want.CompactState()
		if !maps.Equal(gc, wc) || gt != wt || gf != wf {
			t.Fatalf("seed %d: Merge gives %d IDs, total %d, found %d; oracle %d, %d, %d", seed, len(gc), gt, gf, len(wc), wt, wf)
		}
		assertMatchesRef(t, got, newRefLog(reqs))
	}
}

// record counts one request for id, as a window of one answer would.
func record(l *RequestLog, id onion.DescriptorID, found bool) {
	l.RecordEach([][]Answer{{{ID: id, Found: found}}})
}
