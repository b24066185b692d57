// Package popularity implements the paper's Section V: resolving the
// descriptor-ID request counts observed at (attacker-operated) hidden
// service directories back to onion addresses, and ranking services by
// request volume. Clients only ever ask for descriptor IDs; the attacker
// re-derives every candidate ID for every known onion address across a
// window of days (tolerating clients with wrong clocks, as the paper did
// for 28 Jan – 8 Feb 2013) and joins the two sets.
package popularity

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
	"torhs/internal/parallel"
)

// Index precomputes descriptor-ID → onion-address mappings over a date
// window. The mapping is stored as a dense entry array plus a compact
// open-addressed probe table of int32 references, keyed by the IDs' own
// leading bytes: descriptor IDs are SHA-1 outputs, already uniformly
// distributed, so inserts and lookups need no hash function at all —
// just a linear probe chain at ≤50% load over a table of 4-byte slots.
// Entries reference their address by index into a shared slice, keeping
// the (large) entry array pointer-free so the garbage collector never
// scans it.
type Index struct {
	slots   []int32 // 1-based indexes into entries; 0 = empty
	mask    uint64
	entries []idEntry
	addrs   []onion.Address
	from    time.Time
	to      time.Time
}

// idEntry is one indexed mapping; addrIdx indexes Index.addrs.
type idEntry struct {
	id      onion.DescriptorID
	addrIdx int32
}

// newIndexTable returns an empty table over the given address universe
// with room for capacity entries at ≤50% load.
func newIndexTable(capacity int, addrs []onion.Address) *Index {
	size := 1 << bits.Len(uint(2*capacity))
	if size < 16 {
		size = 16
	}
	return &Index{
		slots:   make([]int32, size),
		mask:    uint64(size - 1),
		entries: make([]idEntry, 0, capacity),
		addrs:   addrs,
	}
}

// insert adds or overwrites one mapping.
//
//torhs:hotpath
func (ix *Index) insert(id onion.DescriptorID, addrIdx int32) {
	if 2*(len(ix.entries)+1) > len(ix.slots) {
		ix.grow()
	}
	slot := binary.BigEndian.Uint64(id[0:8]) & ix.mask
	for {
		ref := ix.slots[slot]
		if ref == 0 {
			ix.entries = append(ix.entries, idEntry{id: id, addrIdx: addrIdx})
			ix.slots[slot] = int32(len(ix.entries))
			return
		}
		if e := &ix.entries[ref-1]; e.id == id {
			e.addrIdx = addrIdx
			return
		}
		slot = (slot + 1) & ix.mask
	}
}

// grow doubles the probe table and reindexes the entries.
func (ix *Index) grow() {
	ix.slots = make([]int32, 2*len(ix.slots))
	ix.mask = uint64(len(ix.slots) - 1)
	for i := range ix.entries {
		slot := binary.BigEndian.Uint64(ix.entries[i].id[0:8]) & ix.mask
		for ix.slots[slot] != 0 {
			slot = (slot + 1) & ix.mask
		}
		ix.slots[slot] = int32(i + 1)
	}
}

// BuildIndex derives, for every known service, all descriptor IDs valid
// in [from, to] and indexes them, using one worker per CPU.
func BuildIndex(services map[onion.Address]onion.PermanentID, from, to time.Time) (*Index, error) {
	return BuildIndexWorkers(services, from, to, 0)
}

// BuildIndexWorkers is BuildIndex with an explicit worker count (<= 0:
// one per CPU). Construction shards the services across workers; the
// secret-id-parts of the window are precomputed once and shared by every
// service (they depend only on the time period and replica), and each
// shard reuses one scratch buffer for the per-service ID derivations.
// The resulting index is identical at every worker count.
func BuildIndexWorkers(
	services map[onion.Address]onion.PermanentID,
	from, to time.Time,
	workers int,
) (*Index, error) {
	return BuildIndexTable(services, from, to, workers, nil)
}

// BuildIndexTable is BuildIndexWorkers with an externally shared
// secret-id-part table (nil builds a fresh one for the window). The
// experiments Env passes its study-wide table so index construction
// reuses the secret parts the simulation substrate already computed;
// periods outside the table fall back to direct derivation, so any table
// yields an identical index.
func BuildIndexTable(
	services map[onion.Address]onion.PermanentID,
	from, to time.Time,
	workers int,
	table *onion.SecretIDTable,
) (*Index, error) {
	if to.Before(from) {
		return nil, fmt.Errorf("popularity: window end %v before start %v", to, from)
	}
	days := int(to.Sub(from)/(24*time.Hour)) + 1
	perService := (days + 1) * onion.Replicas

	// Deterministic shard layout: services sorted by address.
	addrs := make([]onion.Address, 0, len(services))
	for a := range services {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	if table == nil {
		table = onion.NewSecretIDTable(from, to)
	}
	shards := make([]*Index, parallel.NumChunks(workers, len(addrs)))
	parallel.Chunks(workers, len(addrs), func(shard, lo, hi int) {
		t := newIndexTable((hi-lo)*perService, addrs)
		var buf []onion.DescriptorID
		for i := lo; i < hi; i++ {
			buf = table.DescriptorIDsInto(buf[:0], services[addrs[i]], from, to)
			for _, id := range buf {
				t.insert(id, int32(i))
			}
		}
		shards[shard] = t
	})

	var ix *Index
	switch len(shards) {
	case 0:
		ix = newIndexTable(0, addrs)
	case 1:
		ix = shards[0]
	default:
		ix = newIndexTable(len(addrs)*perService, addrs)
		// Merge in shard order (and within a shard in insertion order) so
		// any (cryptographically improbable) cross-service ID collision
		// resolves deterministically.
		for _, t := range shards {
			for i := range t.entries {
				ix.insert(t.entries[i].id, t.entries[i].addrIdx)
			}
		}
	}
	ix.from, ix.to = from, to
	return ix, nil
}

// Len returns the number of indexed descriptor IDs.
func (ix *Index) Len() int { return len(ix.entries) }

// Resolve maps one descriptor ID to its onion address.
//
//torhs:hotpath
func (ix *Index) Resolve(id onion.DescriptorID) (onion.Address, bool) {
	slot := binary.BigEndian.Uint64(id[0:8]) & ix.mask
	for {
		ref := ix.slots[slot]
		if ref == 0 {
			return "", false
		}
		if e := &ix.entries[ref-1]; e.id == id {
			return ix.addrs[e.addrIdx], true
		}
		slot = (slot + 1) & ix.mask
	}
}

// Resolution summarises resolving a request log against an index.
type Resolution struct {
	// TotalRequests across all descriptor IDs (1,031,176 in the paper).
	TotalRequests int
	// UniqueIDs requested (29,123 in the paper).
	UniqueIDs int
	// ResolvedIDs mapped to a known address (6,113 in the paper).
	ResolvedIDs int
	// ResolvedAddresses is the number of distinct addresses hit (3,140
	// in the paper).
	ResolvedAddresses int
	// ResolvedRequests is the request volume carried by resolved IDs.
	ResolvedRequests int
	// PerAddress is the request count per resolved onion address.
	PerAddress map[onion.Address]int
}

// Resolve joins per-descriptor-ID request counts with the index.
func Resolve(counts map[onion.DescriptorID]int, ix *Index) *Resolution {
	res := &Resolution{PerAddress: make(map[onion.Address]int)}
	for id, n := range counts {
		res.addCount(id, n, ix)
	}
	res.ResolvedAddresses = len(res.PerAddress)
	return res
}

// ResolveLog joins a request log with the index, iterating the log's
// per-ID counts in place instead of copying them into a map first (the
// zero-copy sibling of Resolve over the counts RequestLog.CompactState
// returns). Output is identical to Resolve.
func ResolveLog(log *hsdir.RequestLog, ix *Index) *Resolution {
	res := &Resolution{PerAddress: make(map[onion.Address]int)}
	log.EachCount(func(id onion.DescriptorID, n int) {
		res.addCount(id, n, ix)
	})
	res.ResolvedAddresses = len(res.PerAddress)
	return res
}

// addCount folds one per-descriptor-ID request count into the resolution.
//
//torhs:orderinsensitive every fold is a commutative accumulation (+= counters and a per-key map add), so the fold order cannot change the result
func (res *Resolution) addCount(id onion.DescriptorID, n int, ix *Index) {
	res.TotalRequests += n
	res.UniqueIDs++
	if addr, ok := ix.Resolve(id); ok {
		res.ResolvedIDs++
		res.ResolvedRequests += n
		res.PerAddress[addr] += n
	}
}

// ResolveBruteForce is the ablation baseline: no index — every requested
// ID is checked against every service by re-deriving that service's IDs
// over the window. Identical output to Resolve over BuildIndex, at
// O(ids × services × days) cost.
func ResolveBruteForce(
	counts map[onion.DescriptorID]int,
	services map[onion.Address]onion.PermanentID,
	from, to time.Time,
) *Resolution {
	res := &Resolution{PerAddress: make(map[onion.Address]int)}
	// Check services in sorted address order: the first-match break below
	// must not depend on map iteration order (IDs never collide across
	// services in practice, but the baseline should be deterministic even
	// if they did).
	addrs := make([]onion.Address, 0, len(services))
	for addr := range services {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var buf []onion.DescriptorID
	for id, n := range counts {
		res.TotalRequests += n
		res.UniqueIDs++
		resolved := false
		for _, addr := range addrs {
			buf = onion.DescriptorIDsOverRangeInto(buf[:0], services[addr], from, to)
			for _, candidate := range buf {
				if candidate == id {
					res.ResolvedIDs++
					res.ResolvedRequests += n
					res.PerAddress[addr] += n
					resolved = true
					break
				}
			}
			if resolved {
				break
			}
		}
	}
	res.ResolvedAddresses = len(res.PerAddress)
	return res
}

// RankEntry is one row of the popularity ranking (Table II).
type RankEntry struct {
	Rank     int
	Requests int
	Addr     onion.Address
	// Label annotates known services ("Goldnet", "SilkRoad", …); empty
	// for anonymous ones.
	Label string
}

// Rank orders resolved addresses by request count, labelling each via the
// optional labeler.
func Rank(res *Resolution, labeler func(onion.Address) string) []RankEntry {
	out := make([]RankEntry, 0, len(res.PerAddress))
	for addr, n := range res.PerAddress {
		out = append(out, RankEntry{Requests: n, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Addr < out[j].Addr
	})
	// Label after sorting: labeler is caller-supplied code, so calling it
	// per map entry would hand it addresses in iteration order.
	for i := range out {
		out[i].Rank = i + 1
		if labeler != nil {
			out[i].Label = labeler(out[i].Addr)
		}
	}
	return out
}

// FindLabel returns the first entry carrying the label, if any.
func FindLabel(ranking []RankEntry, label string) (RankEntry, bool) {
	for _, e := range ranking {
		if e.Label == label {
			return e, true
		}
	}
	return RankEntry{}, false
}
