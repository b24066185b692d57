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
	dir := NewDirectory(onion.RandomFingerprint(rng), 0)
	desc := makeDescriptor(rng, at(0))

	dir.Publish(desc, at(0))
	got, ok := dir.Fetch(desc.DescID, at(1))
	if !ok {
		t.Fatal("fetch failed for stored descriptor")
	}
	if got.Address != desc.Address {
		t.Fatal("fetched wrong descriptor")
	}
}

func TestFetchMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := NewDirectory(onion.RandomFingerprint(rng), 0)
	var id onion.DescriptorID
	if _, ok := dir.Fetch(id, at(0)); ok {
		t.Fatal("fetch of absent descriptor succeeded")
	}
}

func TestDescriptorExpiresAfterTTL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := NewDirectory(onion.RandomFingerprint(rng), 24*time.Hour)
	desc := makeDescriptor(rng, at(0))
	dir.Publish(desc, at(0))

	if _, ok := dir.Fetch(desc.DescID, at(23)); !ok {
		t.Fatal("descriptor gone before TTL")
	}
	if _, ok := dir.Fetch(desc.DescID, at(25)); ok {
		t.Fatal("descriptor alive after TTL")
	}
	if dir.Stored() != 0 {
		t.Fatal("expired descriptor not reaped on fetch")
	}
}

func TestRepublishRefreshesExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := NewDirectory(onion.RandomFingerprint(rng), 24*time.Hour)
	desc := makeDescriptor(rng, at(0))
	dir.Publish(desc, at(0))
	dir.Publish(desc, at(20))
	if _, ok := dir.Fetch(desc.DescID, at(30)); !ok {
		t.Fatal("republished descriptor expired early")
	}
}

func TestExpireReapsInBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := NewDirectory(onion.RandomFingerprint(rng), 24*time.Hour)
	for i := 0; i < 10; i++ {
		dir.Publish(makeDescriptor(rng, at(0)), at(0))
	}
	for i := 0; i < 5; i++ {
		dir.Publish(makeDescriptor(rng, at(20)), at(20))
	}
	if n := dir.Expire(at(30)); n != 10 {
		t.Fatalf("expired %d, want 10", n)
	}
	if dir.Stored() != 5 {
		t.Fatalf("stored = %d, want 5", dir.Stored())
	}
}

func TestPublishedAndRequestedStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := NewDirectory(onion.RandomFingerprint(rng), 0)

	descs := make([]*onion.Descriptor, 10)
	for i := range descs {
		descs[i] = makeDescriptor(rng, at(0))
		dir.Publish(descs[i], at(0))
	}
	// Only one published descriptor is requested (the paper saw ~10%).
	dir.Fetch(descs[0].DescID, at(1))
	// Plus requests for never-published IDs.
	for i := 0; i < 4; i++ {
		var bogus onion.DescriptorID
		bogus[0] = byte(i + 1)
		dir.Fetch(bogus, at(1))
	}

	if got := dir.PublishedEver(); got != 10 {
		t.Fatalf("PublishedEver = %d, want 10", got)
	}
	if got := dir.RequestedPublishedEver(); got != 1 {
		t.Fatalf("RequestedPublishedEver = %d, want 1", got)
	}
}

func TestRequestLogCountsAndMerge(t *testing.T) {
	a := NewRequestLog()
	b := NewRequestLog()
	var id1, id2 onion.DescriptorID
	id1[0], id2[0] = 1, 2

	a.Record(id1, true)
	a.Record(id1, false)
	b.Record(id2, false)

	a.MergeAll([]*RequestLog{b})
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
