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
	"sync/atomic"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
	"torhs/internal/parallel"
)

// Index is a resolution plan: the known services in sorted address order
// and the date window whose descriptor IDs can map a request back to one
// of them. Resolution runs the join from the requested side. The log
// holds far fewer distinct IDs than the window holds candidates
// (services × periods × replicas), so the resolver builds a probe set
// over the requested IDs, derives every service's window IDs in shards
// and keeps only the hits.
type Index struct {
	addrs   []onion.Address
	permIDs []onion.PermanentID // permIDs[i] belongs to addrs[i]
	from    time.Time
	to      time.Time
	workers int
	table   *onion.SecretIDTable
}

// BuildIndexTable prepares resolution of requests against every known
// service's descriptor IDs valid in [from, to]. Derivation shards the
// services across workers (<= 0: one per CPU) and shares the secret-id-
// parts of table, which the experiments Env passes as its study-wide
// table; nil builds one for the window. Periods outside the table fall
// back to direct derivation, so any table and any worker count yield the
// same resolution.
func BuildIndexTable(
	services map[onion.Address]onion.PermanentID,
	from, to time.Time,
	workers int,
	table *onion.SecretIDTable,
) (*Index, error) {
	if to.Before(from) {
		return nil, fmt.Errorf("popularity: window end %v before start %v", to, from)
	}
	addrs := make([]onion.Address, 0, len(services))
	for a := range services {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	permIDs := make([]onion.PermanentID, len(addrs))
	for i, a := range addrs {
		permIDs[i] = services[a]
	}
	if table == nil {
		table = onion.NewSecretIDTable(from, to)
	}
	return &Index{addrs: addrs, permIDs: permIDs, from: from, to: to, workers: workers, table: table}, nil
}

// requested is an open-addressed set over the requested descriptor IDs
// with their counts: a table of 8-byte slots at <= 50% load into a dense
// entry array, probed by the IDs' own bytes (descriptor IDs are SHA-1
// outputs, already uniformly distributed, so no hash function is
// needed). Bytes 4..7 pick the slot and bytes 0..3 tag it, so a probe
// rejects all but about one in 2^32 non-matching slots without reading
// the entry array.
type requested struct {
	slots  []probeSlot
	mask   uint32
	ids    []onion.DescriptorID
	counts []int
}

// probeSlot is one slot of the requested set.
type probeSlot struct {
	tag uint32 // bytes 0..3 of the ID
	ref int32  // 1-based index into ids; 0 = empty
}

// probeKey returns id's tag and first slot.
func (r *requested) probeKey(id *onion.DescriptorID) (tag, slot uint32) {
	return binary.BigEndian.Uint32(id[0:4]), binary.BigEndian.Uint32(id[4:8]) & r.mask
}

func newRequested(capacity int) *requested {
	size := max(16, 1<<bits.Len(uint(2*capacity)))
	return &requested{
		slots:  make([]probeSlot, size),
		mask:   uint32(size - 1),
		ids:    make([]onion.DescriptorID, 0, capacity),
		counts: make([]int, 0, capacity),
	}
}

// add records n requests for id, which must not be in the set yet (a
// log or a count map holds each ID once). The capacity given to
// newRequested must cover every add.
//
//torhs:orderinsensitive an entry's index depends on the add order, but the resolution reads the entries only through commutative folds and the highest-address rule, neither of which sees an index
func (r *requested) add(id onion.DescriptorID, n int) {
	if 2*len(r.ids) >= len(r.slots) {
		panic("popularity: more requested IDs than the set was sized for")
	}
	tag, slot := r.probeKey(&id)
	for r.slots[slot].ref != 0 {
		slot = (slot + 1) & r.mask
	}
	r.ids = append(r.ids, id)
	r.counts = append(r.counts, n)
	r.slots[slot] = probeSlot{tag: tag, ref: int32(len(r.ids))}
}

// find returns id's entry index, or -1.
func (r *requested) find(id *onion.DescriptorID) int {
	tag, slot := r.probeKey(id)
	for {
		s := r.slots[slot]
		if s.ref == 0 {
			return -1
		}
		if s.tag == tag && r.ids[s.ref-1] == *id {
			return int(s.ref - 1)
		}
		slot = (slot + 1) & r.mask
	}
}

// resolve joins the requested set with the index. Each shard derives the
// window IDs of a contiguous span of services and, for every requested
// ID it derives, raises the ID's owner to the service's address index
// (an atomic max). An ID two services share (cryptographically
// improbable) therefore resolves to the one with the higher
// sorted-address index, whatever the worker count and the shards'
// timing.
func (ix *Index) resolve(req *requested) *Resolution {
	owner := make([]atomic.Int32, len(req.ids))
	for k := range owner {
		owner[k].Store(-1)
	}
	if len(req.ids) > 0 {
		// A service's periods in the window: one per day it spans, plus
		// one for its rollover offset.
		perService := (int(ix.to.Sub(ix.from)/(24*time.Hour)) + 2) * onion.Replicas
		parallel.Chunks(ix.workers, len(ix.addrs), func(_, lo, hi int) {
			buf := make([]onion.DescriptorID, 0, perService)
			for i := lo; i < hi; i++ {
				buf = ix.table.DescriptorIDsInto(buf[:0], ix.permIDs[i], ix.from, ix.to)
				for j := range buf {
					if k := req.find(&buf[j]); k >= 0 {
						raise(&owner[k], int32(i))
					}
				}
			}
		})
	}
	res := &Resolution{UniqueIDs: len(req.ids)}
	for k, n := range req.counts {
		res.TotalRequests += n
		if owner[k].Load() >= 0 {
			res.ResolvedIDs++
			res.ResolvedRequests += n
		}
	}
	res.PerAddress = make(map[onion.Address]int, res.ResolvedIDs) // at most one address per resolved ID
	for k, n := range req.counts {
		if o := owner[k].Load(); o >= 0 {
			res.PerAddress[ix.addrs[o]] += n
		}
	}
	res.ResolvedAddresses = len(res.PerAddress)
	return res
}

// raise sets o to v unless it already holds at least v.
func raise(o *atomic.Int32, v int32) {
	for {
		cur := o.Load()
		if cur >= v || o.CompareAndSwap(cur, v) {
			return
		}
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

// ResolveLog joins a request log with the index, reading the log's
// per-ID counts in place instead of copying them into a map first.
func ResolveLog(log *hsdir.RequestLog, ix *Index) *Resolution {
	req := newRequested(log.UniqueIDs())
	log.EachCount(req.add)
	return ix.resolve(req)
}

// ResolveBruteForce is the ablation baseline and the resolver's oracle:
// every requested ID is checked against every service by re-deriving
// that service's IDs over the window. Identical output to ResolveLog over
// BuildIndexTable, at O(ids × services × days) cost.
func ResolveBruteForce(
	counts map[onion.DescriptorID]int,
	services map[onion.Address]onion.PermanentID,
	from, to time.Time,
) *Resolution {
	res := &Resolution{PerAddress: make(map[onion.Address]int)}
	// Check services in descending address order: the first match wins,
	// so an ID two services share (never in practice, but the baseline
	// must be deterministic even then) resolves to the higher address, as
	// in ResolveLog.
	addrs := make([]onion.Address, 0, len(services))
	for addr := range services {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] > addrs[j] })
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
