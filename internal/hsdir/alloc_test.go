package hsdir

import (
	"math/rand"
	"testing"
	"time"

	"torhs/internal/onion"
)

// TestPublishSteadyStateAllocFree locks in that republishing descriptors
// the directory has seen before — the common case across a trawl's
// rotation steps — performs zero heap allocations.
func TestPublishSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := NewDirectory(onion.RandomFingerprint(rng), 24*time.Hour)
	descs := make([]*onion.Descriptor, 64)
	for i := range descs {
		descs[i] = makeDescriptor(rng, at(0))
		dir.Publish(descs[i], at(0))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dir.Publish(descs[i%len(descs)], at(1))
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Publish allocates %v times per op, want 0", allocs)
	}
}

// TestProbeAllocFree locks in that the lock-free fetch path (hits,
// misses, and expired entries alike) performs zero heap allocations.
func TestProbeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := NewDirectory(onion.RandomFingerprint(rng), 24*time.Hour)
	descs := make([]*onion.Descriptor, 64)
	for i := range descs {
		descs[i] = makeDescriptor(rng, at(0))
		dir.Publish(descs[i], at(0))
	}
	var missing onion.DescriptorID
	missing[0] = 0xFF
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := dir.Probe(descs[i%len(descs)].DescID, at(1)); !ok {
			t.Fatal("probe missed a stored descriptor")
		}
		if _, ok := dir.Probe(missing, at(1)); ok {
			t.Fatal("probe found a never-published descriptor")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Probe allocates %v times per op, want 0", allocs)
	}
}

// TestRecordEachAllocFree locks in that folding a driven window's
// requests into a log that already holds their IDs — the steady state of
// a trawl step's network log — performs zero heap allocations: one lock,
// then one count increment per request.
func TestRecordEachAllocFree(t *testing.T) {
	reqs := testRequests(6, 4096, 64)
	l := NewRequestLog()
	recordAll(l, reqs)
	allocs := testing.AllocsPerRun(100, func() {
		recordAll(l, reqs)
	})
	if allocs != 0 {
		t.Fatalf("RecordEach allocates %v times per window over known IDs, want 0", allocs)
	}
	if got, want := l.Total(), 102*len(reqs); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
}

// TestResponsibleIndicesIntoAllocFree locks in that handle-based
// responsible-set resolution reuses its scratch buffer.
func TestResponsibleIndicesIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fps := make([]onion.Fingerprint, 800)
	for i := range fps {
		fps[i] = onion.RandomFingerprint(rng)
	}
	ring := NewRing(fps)
	ids := make([]onion.DescriptorID, 64)
	for i := range ids {
		f := onion.RandomFingerprint(rng)
		copy(ids[i][:], f[:])
	}
	buf := make([]int32, 0, onion.SpreadPerReplica)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = ring.ResponsibleIndicesInto(buf[:0], ids[i%len(ids)], onion.SpreadPerReplica)
		if len(buf) != onion.SpreadPerReplica {
			t.Fatal("bad responsible set")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ResponsibleIndicesInto allocates %v times per op, want 0", allocs)
	}
}
