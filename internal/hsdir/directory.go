package hsdir

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"torhs/internal/onion"
)

// Directory is the descriptor store operated by one HSDir relay.
// Descriptors expire after TTL (24 h on the 2013 network: directories
// responsible for the previous time period erase old descriptors). It
// keeps no request log: the network that drives fetches against its
// directories counts the requests it needs (simnet.Network.Log).
//
// The store is a pointer-free entry arena plus an open-addressed probe
// table of int32 references keyed by the descriptor IDs' own leading
// bytes (the same scheme as the popularity probe set): descriptor IDs are
// SHA-1 outputs, already uniformly distributed, so lookups need no hash
// function and no map. Each distinct ID ever published owns exactly one
// arena entry for the directory's lifetime; an expired entry reads as
// absent until republication refreshes its expiry. The arena doubles as
// the "published ever" set of the paper's 10% statistic, and the IDs ever
// fetched are a bitset over arena indexes — replacing the two
// map[DescriptorID]bool sets of the map-based store.
type Directory struct {
	mu sync.Mutex

	ttl time.Duration

	slots   []int32 // 1-based indexes into entries; 0 = empty
	mask    uint64
	entries []dirEntry
	descs   []*onion.Descriptor // descs[i] belongs to entries[i]

	// requested marks arena indexes whose descriptor was ever fetched
	// while stored — the numerator of the paper's "only 10% of published
	// descriptors were ever requested" statistic. Bits are set with
	// atomic OR so the lock-free Probe path can record them while other
	// probes run.
	requested []uint32
}

// dirEntry is one arena slot: a descriptor ID ever published here and its
// current expiry (unix nanoseconds). The entry array holds no pointers,
// so the garbage collector never scans it.
type dirEntry struct {
	id        onion.DescriptorID
	expiresAt int64
}

// NewDirectory creates an empty directory whose descriptors expire ttl
// after publication; ttl <= 0 defaults to 24 hours.
func NewDirectory(ttl time.Duration) *Directory {
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	return &Directory{ttl: ttl}
}

// lookup returns the arena index of id, or -1.
func (d *Directory) lookup(id onion.DescriptorID) int32 {
	if len(d.slots) == 0 {
		return -1
	}
	slot := binary.BigEndian.Uint64(id[0:8]) & d.mask
	for {
		ref := d.slots[slot]
		if ref == 0 {
			return -1
		}
		if d.entries[ref-1].id == id {
			return ref - 1
		}
		slot = (slot + 1) & d.mask
	}
}

// grow (re)builds the probe table at double capacity (≤50% load).
func (d *Directory) grow() {
	size := 2 * len(d.slots)
	if size < 16 {
		size = max(16, 1<<bits.Len(uint(2*(len(d.entries)+1))))
	}
	d.rehash(size)
}

// rehash rebuilds the probe table with size slots, a power of two.
func (d *Directory) rehash(size int) {
	d.slots = make([]int32, size)
	d.mask = uint64(size - 1)
	for i := range d.entries {
		slot := binary.BigEndian.Uint64(d.entries[i].id[0:8]) & d.mask
		for d.slots[slot] != 0 {
			slot = (slot + 1) & d.mask
		}
		d.slots[slot] = int32(i + 1)
	}
}

// Reserve makes room for n more distinct descriptor IDs, so that the
// next n first publications grow neither the store nor its probe table.
func (d *Directory) Reserve(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	want := len(d.entries) + n
	d.entries = slices.Grow(d.entries, n)
	d.descs = slices.Grow(d.descs, n)
	d.requested = slices.Grow(d.requested, max(0, (want+31)/32-len(d.requested)))
	if 2*want > len(d.slots) {
		d.rehash(max(16, 1<<bits.Len(uint(2*want-1))))
	}
}

// Publish stores a descriptor at instant now, replacing any previous
// descriptor under the same ID and refreshing its expiry. Steady-state
// republication (an ID this directory has seen before) performs zero heap
// allocations.
func (d *Directory) Publish(desc *onion.Descriptor, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	expires := now.Add(d.ttl).UnixNano()
	if i := d.lookup(desc.DescID); i >= 0 {
		d.entries[i].expiresAt = expires
		d.descs[i] = desc
		return
	}
	if 2*(len(d.entries)+1) > len(d.slots) {
		d.grow()
	}
	d.entries = append(d.entries, dirEntry{id: desc.DescID, expiresAt: expires})
	d.descs = append(d.descs, desc)
	if w := (len(d.entries) + 31) / 32; w > len(d.requested) {
		d.requested = append(d.requested, 0)
	}
	slot := binary.BigEndian.Uint64(desc.DescID[0:8]) & d.mask
	for d.slots[slot] != 0 {
		slot = (slot + 1) & d.mask
	}
	d.slots[slot] = int32(len(d.entries))
}

// markRequested sets the requested bit for arena index i with an atomic
// OR, so concurrent Probe calls may record hits without the lock.
func (d *Directory) markRequested(i int32) {
	atomic.OrUint32(&d.requested[i/32], 1<<uint(i%32))
}

// isRequested reports the requested bit for arena index i.
func (d *Directory) isRequested(i int32) bool {
	return atomic.LoadUint32(&d.requested[i/32])&(1<<uint(i%32)) != 0
}

// Probe is the lock-free fetch used on the driven-traffic hot path: it
// looks up a descriptor by ID and marks it as requested on a hit.
// Expired descriptors are treated as absent. Probe
// performs zero heap allocations and may run concurrently with other
// Probe calls; callers must not run it concurrently with Publish.
func (d *Directory) Probe(id onion.DescriptorID, now time.Time) (*onion.Descriptor, bool) {
	i := d.lookup(id)
	if i < 0 {
		return nil, false
	}
	if now.UnixNano() > d.entries[i].expiresAt {
		return nil, false
	}
	d.markRequested(i)
	return d.descs[i], true
}

// Each visits the stored descriptors, the latest published under each ID
// whether expired or not, in publication order without copying a
// snapshot. It visits exactly one descriptor per descriptor ID ever
// published here, so their DescIDs are the "published ever" set. The
// directory's lock is held for the whole iteration; fn must not call
// back into the directory.
func (d *Directory) Each(fn func(*onion.Descriptor)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, desc := range d.descs {
		fn(desc)
	}
}

// PublishedEver returns how many distinct descriptor IDs were ever stored.
func (d *Directory) PublishedEver() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// EachRequestedPublishedID visits the stored descriptor IDs that were
// ever fetched by a client, in publication order, without copying a
// snapshot. The lock is held for the whole iteration; fn must not call
// back into the directory.
func (d *Directory) EachRequestedPublishedID(fn func(onion.DescriptorID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.entries {
		if d.isRequested(int32(i)) {
			fn(d.entries[i].id)
		}
	}
}
