package hsdir

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"torhs/internal/onion"
)

// refDirectory is the map-based reference store the probe-table Directory
// replaced: a map of stored descriptors plus two "ever" sets. The
// property suite drives both implementations through the same random
// publish/probe interleavings and requires every observable to agree.
type refDirectory struct {
	ttl       time.Duration
	store     map[onion.DescriptorID]refStored
	published map[onion.DescriptorID]bool
	requested map[onion.DescriptorID]bool
}

type refStored struct {
	desc      *onion.Descriptor
	expiresAt time.Time
}

func newRefDirectory(ttl time.Duration) *refDirectory {
	return &refDirectory{
		ttl:       ttl,
		store:     make(map[onion.DescriptorID]refStored),
		published: make(map[onion.DescriptorID]bool),
		requested: make(map[onion.DescriptorID]bool),
	}
}

func (r *refDirectory) publish(desc *onion.Descriptor, now time.Time) {
	r.store[desc.DescID] = refStored{desc: desc, expiresAt: now.Add(r.ttl)}
	r.published[desc.DescID] = true
}

// probe mirrors Directory.Probe.
func (r *refDirectory) probe(id onion.DescriptorID, now time.Time) (*onion.Descriptor, bool) {
	sd, ok := r.store[id]
	if !ok || now.After(sd.expiresAt) {
		return nil, false
	}
	r.requested[id] = true
	return sd.desc, true
}

func sortedIDs(ids []onion.DescriptorID) []onion.DescriptorID {
	out := make([]onion.DescriptorID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (r *refDirectory) check(t *testing.T, dir *Directory, step int) {
	t.Helper()
	if got, want := dir.PublishedEver(), len(r.published); got != want {
		t.Fatalf("step %d: PublishedEver = %d, want %d", step, got, want)
	}

	// Stored descriptor set (by ID).
	var gotLive []onion.DescriptorID
	dir.Each(func(d *onion.Descriptor) { gotLive = append(gotLive, d.DescID) })
	wantLive := make([]onion.DescriptorID, 0, len(r.store))
	for id := range r.store {
		wantLive = append(wantLive, id)
	}
	gotLive, wantLive = sortedIDs(gotLive), sortedIDs(wantLive)
	for i := range gotLive {
		if i >= len(wantLive) || gotLive[i] != wantLive[i] {
			t.Fatalf("step %d: stored descriptor sets diverge", step)
		}
	}
	if len(gotLive) != len(wantLive) {
		t.Fatalf("step %d: stored descriptor sets diverge in size", step)
	}

	// Ever-published and ever-requested sets.
	var gotPub []onion.DescriptorID
	dir.EachPublishedID(func(id onion.DescriptorID) { gotPub = append(gotPub, id) })
	if len(gotPub) != len(r.published) {
		t.Fatalf("step %d: published set size = %d, want %d", step, len(gotPub), len(r.published))
	}
	for _, id := range gotPub {
		if !r.published[id] {
			t.Fatalf("step %d: unexpected published ID %x", step, id)
		}
	}
	var gotReq []onion.DescriptorID
	dir.EachRequestedPublishedID(func(id onion.DescriptorID) { gotReq = append(gotReq, id) })
	if len(gotReq) != len(r.requested) {
		t.Fatalf("step %d: requested set size = %d, want %d", step, len(gotReq), len(r.requested))
	}
	for _, id := range gotReq {
		if !r.requested[id] {
			t.Fatalf("step %d: unexpected requested ID %x", step, id)
		}
	}
}

// TestDirectoryMatchesMapReference drives the compact probe-table store
// and the old map-based semantics through identical random interleavings
// of publish, republish and probe, and requires every observable
// statistic and set to stay equal throughout.
func TestDirectoryMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ttl := 24 * time.Hour
		dir := NewDirectory(ttl)
		ref := newRefDirectory(ttl)

		// A fixed pool of descriptors (so republication and repeated
		// fetches are common) plus never-published query IDs.
		descs := make([]*onion.Descriptor, 40)
		for i := range descs {
			descs[i] = makeDescriptor(rng, at(0))
		}
		bogus := make([]onion.DescriptorID, 10)
		for i := range bogus {
			f := onion.RandomFingerprint(rng)
			copy(bogus[i][:], f[:])
		}

		now := at(0)
		for step := 0; step < 600; step++ {
			// Time advances randomly so descriptors keep expiring.
			now = now.Add(time.Duration(rng.Intn(5)) * time.Hour)
			pick := func() onion.DescriptorID {
				if rng.Intn(5) == 0 {
					return bogus[rng.Intn(len(bogus))]
				}
				return descs[rng.Intn(len(descs))].DescID
			}
			if rng.Intn(10) < 4 { // publish / republish
				d := descs[rng.Intn(len(descs))]
				dir.Publish(d, now)
				ref.publish(d, now)
			} else {
				id := pick()
				gd, gok := dir.Probe(id, now)
				wd, wok := ref.probe(id, now)
				if gok != wok || gd != wd {
					t.Fatalf("seed %d step %d: Probe(%x) = (%v,%v), want (%v,%v)",
						seed, step, id, gd, gok, wd, wok)
				}
			}
			if step%97 == 0 {
				ref.check(t, dir, step)
			}
		}
		ref.check(t, dir, 600)
	}
}
