// Package hsdir implements the hidden-service directory system: the
// fingerprint ring on which descriptor IDs are mapped to responsible
// directories, the per-relay descriptor store with expiry, and the request
// log that powers the paper's popularity measurement.
package hsdir

import (
	"encoding/binary"
	"sort"
	"time"

	"torhs/internal/onion"
)

// Ring is the sorted circle of HSDir fingerprints. A descriptor replica is
// stored on the onion.SpreadPerReplica relays whose fingerprints follow
// the descriptor ID (wrapping at the top of the SHA-1 space).
type Ring struct {
	fps []onion.Fingerprint
	// hi caches the leading 8 bytes of every fingerprint as a big-endian
	// word, so the binary search touches one dense uint64 array instead of
	// scattered 20-byte keys; fingerprints are uniform SHA-1 outputs, so
	// the prefix almost always decides the comparison on its own.
	hi []uint64
}

// NewRing builds a ring from the given fingerprints, sorting and
// deduplicating them. The input slice is not retained.
func NewRing(fps []onion.Fingerprint) *Ring {
	sorted := make([]onion.Fingerprint, len(fps))
	copy(sorted, fps)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	dedup := sorted[:0]
	for i, f := range sorted {
		if i == 0 || f != sorted[i-1] {
			dedup = append(dedup, f)
		}
	}
	hi := make([]uint64, len(dedup))
	for i := range dedup {
		hi[i] = binary.BigEndian.Uint64(dedup[i][:8])
	}
	return &Ring{fps: dedup, hi: hi}
}

// search returns the index of the first fingerprint > d on the ring
// (len(fps) if none is). Hand-rolled binary search over the prefix
// array: a closure passed to sort.Search would defeat the
// zero-allocation guarantee, and the dense uint64 prefixes decide almost
// every probe without loading the full 20-byte fingerprint.
func (r *Ring) search(d onion.DescriptorID) int {
	dHi := binary.BigEndian.Uint64(d[:8])
	dAsFP := onion.Fingerprint(d)
	lo, hi := 0, len(r.fps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		var less bool
		switch {
		case dHi < r.hi[m]:
			less = true
		case dHi > r.hi[m]:
			less = false
		default:
			less = dAsFP.Less(r.fps[m])
		}
		if less {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Len returns the number of distinct fingerprints on the ring.
func (r *Ring) Len() int { return len(r.fps) }

// Fingerprints returns the ring in sorted order. The returned slice
// aliases the ring; callers must not mutate it.
func (r *Ring) Fingerprints() []onion.Fingerprint { return r.fps }

// Responsible returns the spread fingerprints following descriptor ID d on
// the ring (binary search; see ResponsibleLinear for the ablation
// baseline). If the ring has fewer than spread members, all of them are
// returned.
func (r *Ring) Responsible(d onion.DescriptorID, spread int) []onion.Fingerprint {
	if len(r.fps) == 0 {
		return nil
	}
	if spread > len(r.fps) {
		spread = len(r.fps)
	}
	return r.ResponsibleInto(make([]onion.Fingerprint, 0, spread), d, spread)
}

// ResponsibleInto appends the spread fingerprints following d to dst and
// returns it, so per-consensus sweeps can reuse one scratch buffer across
// calls (pass dst[:0]); with sufficient capacity the call performs zero
// heap allocations.
func (r *Ring) ResponsibleInto(dst []onion.Fingerprint, d onion.DescriptorID, spread int) []onion.Fingerprint {
	if len(r.fps) == 0 {
		return dst
	}
	if spread > len(r.fps) {
		spread = len(r.fps)
	}
	lo := r.search(d)
	for i := 0; i < spread; i++ {
		dst = append(dst, r.fps[(lo+i)%len(r.fps)])
	}
	return dst
}

// ResponsibleIndicesInto appends the ring positions (indexes into
// Fingerprints()) of the spread relays following d to dst and returns it.
// Callers that keep per-relay state in dense ring-ordered arrays — the
// simnet directory stores — resolve a descriptor ID straight to integer
// relay handles with zero per-call allocations and no map lookups.
func (r *Ring) ResponsibleIndicesInto(dst []int32, d onion.DescriptorID, spread int) []int32 {
	if len(r.fps) == 0 {
		return dst
	}
	if spread > len(r.fps) {
		spread = len(r.fps)
	}
	lo := r.search(d)
	for i := 0; i < spread; i++ {
		dst = append(dst, int32((lo+i)%len(r.fps)))
	}
	return dst
}

// ResponsibleLinear is the O(n) scan variant of Responsible. It is the
// ablation baseline for BenchmarkRingLookup*, and the naive oracle that
// simnet's tests check each driven window's phantom table against.
func (r *Ring) ResponsibleLinear(d onion.DescriptorID, spread int) []onion.Fingerprint {
	if len(r.fps) == 0 {
		return nil
	}
	if spread > len(r.fps) {
		spread = len(r.fps)
	}
	var dAsFP onion.Fingerprint
	copy(dAsFP[:], d[:])
	start := len(r.fps)
	for i, f := range r.fps {
		if dAsFP.Less(f) {
			start = i
			break
		}
	}
	out := make([]onion.Fingerprint, 0, spread)
	for i := 0; i < spread; i++ {
		out = append(out, r.fps[(start+i)%len(r.fps)])
	}
	return out
}

// ResponsibleForServiceAt returns the full responsible set for a service
// at instant t: onion.Replicas replicas × onion.SpreadPerReplica relays (6
// on the 2013 network). The result may contain duplicates if replica
// ranges overlap on a small ring.
func (r *Ring) ResponsibleForServiceAt(id onion.PermanentID, t time.Time) []onion.Fingerprint {
	ids := onion.DescriptorIDs(id, t)
	out := make([]onion.Fingerprint, 0, len(ids)*onion.SpreadPerReplica)
	for _, d := range ids {
		out = append(out, r.Responsible(d, onion.SpreadPerReplica)...)
	}
	return out
}

// AverageGap returns the mean forward distance between consecutive
// fingerprints on the ring as a RingInt (2^160 / n for a perfectly uniform
// ring). Tracking detection compares observed descriptor-to-fingerprint
// distances against this average.
func (r *Ring) AverageGap() onion.RingInt {
	if len(r.fps) < 2 {
		return onion.MaxRingAvgGap(0)
	}
	// The consecutive gaps around the ring sum to exactly 2^160, so the
	// average gap is 2^160/n.
	return onion.MaxRingAvgGap(uint64(len(r.fps)))
}
