package hsdir

import (
	"math/rand"
	"testing"
	"time"

	"torhs/internal/onion"
)

func at(h int) time.Time {
	return time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func makeDescriptor(rng *rand.Rand, now time.Time) *onion.Descriptor {
	key := onion.GenerateKey(rng)
	id := key.PermanentID()
	return &onion.Descriptor{
		DescID:      onion.ComputeDescriptorID(id, now, 0),
		Address:     onion.AddressFromID(id),
		PermID:      id,
		Replica:     0,
		PublishedAt: now,
	}
}

func TestPublishAndFetch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := NewDirectory(0)
	desc := makeDescriptor(rng, at(0))

	dir.Publish(desc, at(0))
	got, ok := dir.Probe(desc.DescID, at(1))
	if !ok {
		t.Fatal("probe failed for stored descriptor")
	}
	if got.Address != desc.Address {
		t.Fatal("probed wrong descriptor")
	}
}

func TestFetchMissing(t *testing.T) {
	dir := NewDirectory(0)
	var id onion.DescriptorID
	if _, ok := dir.Probe(id, at(0)); ok {
		t.Fatal("probe of absent descriptor succeeded")
	}
}

func TestDescriptorExpiresAfterTTL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := NewDirectory(24 * time.Hour)
	desc := makeDescriptor(rng, at(0))
	dir.Publish(desc, at(0))

	if _, ok := dir.Probe(desc.DescID, at(23)); !ok {
		t.Fatal("descriptor gone before TTL")
	}
	if _, ok := dir.Probe(desc.DescID, at(25)); ok {
		t.Fatal("descriptor alive after TTL")
	}
}

func TestRepublishRefreshesExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := NewDirectory(24 * time.Hour)
	desc := makeDescriptor(rng, at(0))
	dir.Publish(desc, at(0))
	dir.Publish(desc, at(20))
	if _, ok := dir.Probe(desc.DescID, at(30)); !ok {
		t.Fatal("republished descriptor expired early")
	}
}

func TestPublishedAndRequestedStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := NewDirectory(0)

	descs := make([]*onion.Descriptor, 10)
	for i := range descs {
		descs[i] = makeDescriptor(rng, at(0))
		dir.Publish(descs[i], at(0))
	}
	// Only one published descriptor is requested (the paper saw ~10%).
	dir.Probe(descs[0].DescID, at(1))
	// Plus requests for never-published IDs.
	for i := 0; i < 4; i++ {
		var bogus onion.DescriptorID
		bogus[0] = byte(i + 1)
		dir.Probe(bogus, at(1))
	}

	if got := dir.PublishedEver(); got != 10 {
		t.Fatalf("PublishedEver = %d, want 10", got)
	}
	var requested []onion.DescriptorID
	dir.EachRequestedPublishedID(func(id onion.DescriptorID) { requested = append(requested, id) })
	if len(requested) != 1 || requested[0] != descs[0].DescID {
		t.Fatalf("requested published IDs = %x, want only %x", requested, descs[0].DescID)
	}
}

func TestRequestLogCountsAndMerge(t *testing.T) {
	a := NewRequestLog()
	b := NewRequestLog()
	var id1, id2 onion.DescriptorID
	id1[0], id2[0] = 1, 2

	record(a, id1, true)
	record(a, id1, false)
	record(b, id2, false)

	a.Merge(b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d, want 3", a.Total())
	}
	if a.UniqueIDs() != 2 {
		t.Fatalf("unique IDs = %d, want 2", a.UniqueIDs())
	}
	counts, _, found := a.CompactState()
	if counts[id1] != 2 || counts[id2] != 1 || found != 1 {
		t.Fatalf("counts = %v, found = %d", counts, found)
	}
	// Merge must not mutate the source.
	if b.Total() != 1 {
		t.Fatal("merge mutated source log")
	}
}
