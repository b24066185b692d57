package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/fault"
	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/stats"
)

// Network wires a consensus snapshot, the HSDir ring with per-relay
// descriptor stores, a guard pool, and a client population into one
// drivable simulation.
//
// Directories are addressed by dense integer relay handles — positions on
// the consensus HSDir ring — resolved once through the document's cached
// lookup table, so the descriptor-fetch hot path runs entirely on slice
// indexing: no fingerprint-keyed map is consulted per request.
type Network struct {
	rng *rand.Rand

	// doc is the single consensus snapshot this network simulates; the
	// network *is* that window, so the document lives exactly as long as
	// the per-step network does (the trawl drops both together).
	//
	//torhs:retained the network's own consensus window; dropped with the per-step network
	doc     *consensus.Document
	ring    *hsdir.Ring
	ringFPs []onion.Fingerprint // ring.Fingerprints(), cached
	dirs    []*hsdir.Directory  // dirs[i] serves ringFPs[i]; nil when unobserved
	// log counts the requests the observed directories answered. It is
	// non-nil exactly when Config.Observed was set (see restricted):
	// nothing reads the counts of an unrestricted network.
	log     *hsdir.RequestLog
	guards  []onion.Fingerprint
	pool    *guardPool
	workers int

	// secrets shares the window's precomputed secret-id-parts across
	// every descriptor-ID derivation (fetches and PublishService).
	// Either injected via Config.SecretTable (the experiments Env shares
	// one table across simnet, trawl, and tracking) or built lazily per
	// driven window; nil until then, deriving every ID directly.
	secrets *onion.SecretIDTable

	geoDB   *geo.DB
	clients []Client

	// hosts holds an unrestricted network's hosts; a restricted network
	// builds none. Both keep the introduction points of the population
	// PublishAll last swept (introSvcs), introPoints per service in
	// order: all a restricted network's stores can hold of a host. An
	// unrestricted network keeps them in intros; a restricted one keeps
	// them as ring positions in introPos, and intros holds the points of
	// just the services its last sweep placed (see placeByArc).
	hosts           map[onion.Address]*Host
	intros          []onion.Fingerprint
	introPos        []int32
	introSvcs       []*hspop.Service
	uploadObservers []func(UploadEvent)
}

// MaxSkew bounds the absolute clock skew of a client with a wrong clock.
const MaxSkew = 72 * time.Hour

// skewedClientFraction of clients have wrong clocks.
const skewedClientFraction = 0.1

// Config parameterises client synthesis. Clients pick entry guards
// uniformly, so an attacker's guard share equals its guard count, which
// the analytical checks in the experiments rely on; every directory
// answers the first request sent to it.
type Config struct {
	// Clients is the number of simulated clients.
	Clients int
	// Seed drives the network's randomness.
	Seed int64
	// Workers shards DriveWindow's fetch execution across goroutines
	// (<= 0: one per CPU). Each fetch draws from an RNG derived from the
	// request's index in the traffic plan, so the driven window is
	// byte-identical at every worker count.
	Workers int
	// SecretTable optionally shares precomputed rend-spec
	// secret-id-parts across every descriptor-ID derivation the network
	// performs (PublishAll derives none: it reads the population's
	// per-period ID cache). Derivations outside the table's window fall
	// back to direct computation, so any table is correct; the
	// experiments Env passes one study-wide table so simnet, trawl, and
	// popularity resolution never recompute the same secret parts. Nil
	// means the network builds a table per driven window on its own.
	SecretTable *onion.SecretIDTable
	// Observed restricts the network to the directories its caller
	// reads (the trawl passes its step's attacker HSDirs, the Fig. 3
	// campaign its target's); nil observes every directory. An
	// unobserved ring position holds no store: Directory reports false
	// for it, publishes skip it, and a request it would answer is neither
	// probed nor counted. Every observed directory's store is exactly
	// that of an unrestricted network. A restricted network also keeps
	// one request log (Network.Log) that counts, per descriptor ID, the
	// requests its observed directories answered; an unrestricted network
	// keeps none. TotalRequests and PhantomRequests are unchanged, but
	// ResolvedHits counts hits at observed directories only. A fetch
	// observer sees exactly the unrestricted network's events whose Dir
	// is observed, in the same order (see DriveWindow). A restricted
	// network takes no upload observers and builds no hosts
	// (PublishService panics). Fingerprints that are not on the HSDir
	// ring are ignored.
	Observed []onion.Fingerprint
}

// DefaultConfig returns a client population sized for tests and examples.
func DefaultConfig(seed int64) Config {
	return Config{Clients: 2000, Seed: seed}
}

// NewNetwork builds the network from a consensus snapshot: one descriptor
// directory per HSDir-flagged relay, the guard pool, and cfg.Clients
// clients with geo-allocated IPs.
func NewNetwork(doc *consensus.Document, db *geo.DB, cfg Config) (*Network, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("simnet: client count %d must be positive", cfg.Clients)
	}
	hsdirs := doc.HSDirs()
	if len(hsdirs) < onion.Replicas*onion.SpreadPerReplica {
		return nil, fmt.Errorf("simnet: only %d HSDirs in consensus, need >= %d",
			len(hsdirs), onion.Replicas*onion.SpreadPerReplica)
	}
	guards := doc.Guards()
	if len(guards) == 0 {
		return nil, errors.New("simnet: no Guard-flagged relays in consensus")
	}

	n := &Network{
		rng: rand.New(rand.NewSource(cfg.Seed)),
		doc: doc,
		// The ring is cached on the document: every network (and analysis)
		// over the same consensus shares one sorted ring.
		ring:    doc.Ring(),
		guards:  guards,
		pool:    &guardPool{fps: guards},
		geoDB:   db,
		workers: cfg.Workers,
		secrets: cfg.SecretTable,
	}
	n.ringFPs = n.ring.Fingerprints()
	n.dirs = make([]*hsdir.Directory, len(n.ringFPs))
	if cfg.Observed != nil {
		n.log = hsdir.NewRequestLog()
		for _, fp := range cfg.Observed {
			if i, ok := doc.HSDirRingPos(fp); ok && n.dirs[i] == nil {
				n.dirs[i] = hsdir.NewDirectory(24 * time.Hour)
			}
		}
	} else {
		n.hosts = make(map[onion.Address]*Host)
		for i := range n.dirs {
			n.dirs[i] = hsdir.NewDirectory(24 * time.Hour)
		}
	}

	// A client's address is formatted only for the events that name it
	// (see event): most networks, the trawl's among them, never read one.
	n.clients = make([]Client, cfg.Clients)
	for i := range n.clients {
		c := &n.clients[i]
		c.ID = i
		c.Country, c.octets = db.DrawIP(n.rng)
		if n.rng.Float64() < skewedClientFraction {
			c.ClockSkew = time.Duration(n.rng.Int63n(int64(2*MaxSkew))) - MaxSkew
		}
	}
	return n, nil
}

// Ring returns the HSDir ring.
func (n *Network) Ring() *hsdir.Ring { return n.ring }

// Directory returns the descriptor store of the relay with fingerprint
// fp, resolved through the consensus document's cached ring-position
// table. It reports false for relays off the ring and for unobserved
// directories of a restricted network.
func (n *Network) Directory(fp onion.Fingerprint) (*hsdir.Directory, bool) {
	if i, ok := n.doc.HSDirRingPos(fp); ok && n.dirs[i] != nil {
		return n.dirs[i], true
	}
	return nil, false
}

// Restricted reports whether Config.Observed restricted the network,
// which is exactly when it keeps a request log.
func (n *Network) Restricted() bool { return n.log != nil }

// Log returns the request log of a restricted network: per descriptor
// ID, the requests its observed directories answered, found or not. It
// is nil on an unrestricted network.
func (n *Network) Log() *hsdir.RequestLog { return n.log }

// GuardPool returns the Guard-flagged fingerprints. The slice aliases the
// consensus document's shared cache; callers must not mutate it (copy
// first, as the deanon pipelines do).
func (n *Network) GuardPool() []onion.Fingerprint { return n.guards }

// publishScratch carries the reusable buffers of a publish sweep.
type publishScratch struct {
	pos []int32
}

// PublishService uploads both descriptor replicas of a service to their
// responsible directories at instant now. The upload travels a
// guard-anchored circuit from the service's host; every upload is
// announced to registered upload observers (the tap the [8]-style
// service deanonymisation uses). It panics on a restricted network,
// which builds no hosts.
func (n *Network) PublishService(svc *hspop.Service, now time.Time) {
	n.mustBeUnrestricted("PublishService")
	var sc publishScratch
	n.publishService(svc, n.ensureHost(svc), n.secrets.DescriptorIDsAt(svc.PermID, now), now, &sc)
}

// publishService uploads svc's replicas, whose descriptor IDs at now are
// ids, from host. A replica gets a Descriptor only when an observed
// directory stores it, and both share the host's intro-point slice
// without copying it: the slice is never mutated after the host
// establishes its intro points, and no descriptor consumer writes it.
func (n *Network) publishService(svc *hspop.Service, host *Host, ids [onion.Replicas]onion.DescriptorID, now time.Time, sc *publishScratch) {
	for replica, descID := range ids {
		var desc *onion.Descriptor
		sc.pos = n.ring.ResponsibleIndicesInto(sc.pos[:0], descID, onion.SpreadPerReplica)
		for _, pos := range sc.pos {
			if n.dirs[pos] == nil {
				continue // unobserved (restricted networks have no upload observers)
			}
			if desc == nil {
				desc = &onion.Descriptor{
					DescID:      descID,
					Address:     svc.Address,
					PermID:      svc.PermID,
					Replica:     uint8(replica),
					PublishedAt: now,
					IntroPoints: host.intros,
				}
			}
			n.dirs[pos].Publish(desc, now)
			if len(n.uploadObservers) > 0 {
				ev := UploadEvent{
					Host:   host,
					Guard:  host.gs.pickPool(n.pool, n.rng, now),
					Dir:    n.ringFPs[pos],
					DescID: descID,
					At:     now,
				}
				for _, fn := range n.uploadObservers {
					fn(ev)
				}
			}
		}
	}
}

// PublishAll uploads descriptors for every descriptor-bearing service in
// the population and returns the number published. Every path reads the
// descriptor IDs from the population's per-period cache
// (hspop.Population.DescriptorIDsAt), so a sweep derives no ID that an
// earlier sweep in the same period — on this network or any other
// publishing the population — already derived.
//
// Observer-tapped networks (the service-deanon tap) draw a guard pick
// from the network RNG per upload, between one host's setup draws and
// the next, and must announce events in service order, so they publish
// one service at a time. Every other sweep first makes the hosts' set-up
// draws in one sequential pass in service order (sweepIntros) — the only
// RNG draws of an untapped sweep — and then places the descriptors by
// directory arc (placeByArc). On a restricted network every path places
// descriptors on observed directories only.
func (n *Network) PublishAll(pop *hspop.Population, now time.Time) int {
	svcs := pop.WithDescriptor()
	ids := pop.DescriptorIDsAt(now)
	if len(n.uploadObservers) > 0 {
		var sc publishScratch
		for i, svc := range svcs {
			n.publishService(svc, n.ensureHost(svc), ids.Of(i), now, &sc)
		}
		return len(svcs)
	}
	n.sweepIntros(svcs)
	n.placeByArc(&ids, svcs, now)
	return len(svcs)
}

// placeByArc publishes, at instant now, each service's replica IDs that
// ids holds for now on the observed directories responsible for them,
// visiting only the IDs some observed directory stores.
//
// The ring's fingerprints cut the ID space into segments: segment q is
// the circular interval [fps[q-1], fps[q]), and ring positions q to
// q+span-1 store its IDs, span being min(ring size, SpreadPerReplica).
// So position p stores exactly the IDs in [fps[p-span], fps[p]) — every
// ID when span is the ring size — and the sweep reads each segment an
// observed directory stores from the population's ID-sorted copies
// (hspop.DescriptorIDs.EachIn). Each ID found gets one Descriptor,
// shared by every directory that stores it, and each directory publishes
// its descriptors in (service, replica) order: the insertion order of a
// service-by-service sweep. A restricted network turns the ring
// positions of its placed services' introduction points into
// fingerprints, once per service, in one arena per sweep (n.intros); the
// descriptors of earlier sweeps keep theirs.
func (n *Network) placeByArc(ids *hspop.DescriptorIDs, svcs []*hspop.Service, now time.Time) {
	nd, span := len(n.dirs), min(len(n.dirs), onion.SpreadPerReplica)
	// Segment q's IDs are hits[segOff[q]:segOff[q+1]].
	segOffPtr, hitsPtr := grabZeroed[int32](&i32Pool, nd+1), grabSlice[*hspop.SortedID](&hitPool, 0)
	defer i32Pool.Put(segOffPtr)
	defer hitPool.Put(hitsPtr)
	segOff, hits := *segOffPtr, *hitsPtr
	for q := range nd {
		if lo, hi, ok := n.observedSegment(q); ok {
			ids.EachIn(lo, hi, func(e *hspop.SortedID) { hits = append(hits, e) })
		}
		segOff[q+1] = int32(len(hits))
	}
	*hitsPtr = hits

	// slot[s] is the 1-based arena position of placed service s.
	var slot []int32
	if n.Restricted() {
		slotPtr := grabZeroed[int32](&i32Pool, len(svcs))
		defer i32Pool.Put(slotPtr)
		slot = *slotPtr
		placed := int32(0)
		for _, e := range hits {
			if slot[e.Svc] == 0 {
				placed++
				slot[e.Svc] = placed
			}
		}
		n.intros = make([]onion.Fingerprint, introPoints*int(placed))
		for s, at := range slot {
			if at == 0 {
				continue
			}
			for j := range introPoints {
				n.intros[int(at-1)*introPoints+j] = n.ringFPs[n.introPos[s*introPoints+j]]
			}
		}
	}
	intros := n.intros
	descs := make([]onion.Descriptor, len(hits))
	parallel.Chunks(n.workers, len(hits), func(_, lo, hi int) {
		for j, e := range hits[lo:hi] {
			svc, in := svcs[e.Svc], int(e.Svc)*introPoints
			if slot != nil {
				in = int(slot[e.Svc]-1) * introPoints
			}
			descs[lo+j] = onion.Descriptor{
				DescID:      e.ID,
				Address:     svc.Address,
				PermID:      svc.PermID,
				Replica:     e.Replica,
				PublishedAt: now,
				IntroPoints: intros[in : in+introPoints : in+introPoints], // shared, as in publishService
			}
		}
	})

	// Each observed directory gathers its segments' descriptors, sorts
	// them by (service, replica) and publishes them in that order.
	dirOffPtr := grabZeroed[int32](&i32Pool, nd+1)
	defer i32Pool.Put(dirOffPtr)
	dirOff := *dirOffPtr
	for p := range nd {
		dirOff[p+1] = dirOff[p]
		for j := 0; j < span && n.dirs[p] != nil; j++ {
			q := (p - j + nd) % nd
			dirOff[p+1] += segOff[q+1] - segOff[q]
		}
	}
	arenaPtr := grabSlice[uint64](&u64Pool, int(dirOff[nd]))
	defer u64Pool.Put(arenaPtr)
	arena := (*arenaPtr)[:dirOff[nd]]
	parallel.ForEach(n.workers, nd, func(p int) {
		run := arena[dirOff[p]:dirOff[p]:dirOff[p+1]]
		for j := 0; j < span && n.dirs[p] != nil; j++ {
			q := (p - j + nd) % nd
			for i := segOff[q]; i < segOff[q+1]; i++ {
				rank := uint64(hits[i].Svc)*onion.Replicas + uint64(hits[i].Replica)
				run = append(run, rank<<32|uint64(i))
			}
		}
		slices.Sort(run)
		// An empty store takes its exact size at once rather than
		// growing one doubling at a time.
		if len(run) > 0 && n.dirs[p].PublishedEver() == 0 {
			n.dirs[p].Reserve(len(run))
		}
		for _, v := range run {
			n.dirs[p].Publish(&descs[uint32(v)], now)
		}
	})
	clear(hits) // the pooled buffer must not pin the sorted copies
}

// observedSegment returns ring segment q's ID interval [lo, hi) (see
// placeByArc) and whether an observed directory stores it.
func (n *Network) observedSegment(q int) (lo, hi onion.DescriptorID, ok bool) {
	nd := len(n.dirs)
	for j := range min(nd, onion.SpreadPerReplica) {
		if n.dirs[(q+j)%nd] != nil {
			return onion.DescriptorID(n.ringFPs[(q-1+nd)%nd]), onion.DescriptorID(n.ringFPs[q]), true
		}
	}
	return lo, hi, false
}

// FetchEvent describes one descriptor fetch as the network executed it.
type FetchEvent struct {
	Client *Client
	// Guard is the entry guard the circuit used.
	Guard onion.Fingerprint
	// Dir is the directory the request was sent to: the first of the
	// responsible directories in a random contact order.
	Dir onion.Fingerprint
	// DescID is the requested descriptor ID.
	DescID onion.DescriptorID
	// Found reports whether the directory had the descriptor.
	Found bool
	// At is the (true) request instant.
	At time.Time
}

// respSet is one descriptor ID's resolved responsible set: the ring
// positions of the directories that store it (fewer than
// onion.SpreadPerReplica only on a smaller ring) and whether any of them
// is observed. It is a pure function of the ID and the network, so
// resolving it early or reusing it can never change an outcome.
type respSet struct {
	pos      [onion.SpreadPerReplica]int32
	n        uint8
	observed bool
}

// resolve binary-searches the ring for descID's responsible set.
func (n *Network) resolve(descID onion.DescriptorID) respSet {
	var s respSet
	pos := n.ring.ResponsibleIndicesInto(s.pos[:0], descID, onion.SpreadPerReplica)
	s.n = uint8(len(pos))
	for _, p := range pos {
		if n.dirs[p] != nil {
			s.observed = true
		}
	}
	return s
}

// phantom is one entry of a driven window's phantom table: a
// never-published descriptor ID and its responsible set.
type phantom struct {
	id  onion.DescriptorID
	set respSet
}

// phantomTable is a driven window's phantom pool, indexed by phantom
// index. The IDs are drawn in the sequential planning phase; the sets are
// resolved once, before the fetch loop.
type phantomTable []phantom

// resolve fills every entry's set, sharded across workers. It draws
// nothing from any RNG.
func (t phantomTable) resolve(n *Network, workers int) {
	parallel.Chunks(workers, len(t), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t[i].set = n.resolve(t[i].id)
		}
	})
}

// memoPeriods is how many time periods a fetch worker's service memo
// keeps for the current service. A client clock skewed by up to ±MaxSkew
// reaches seven daily periods around the true one, so skewed and
// unskewed clients of one service no longer evict each other's period.
const memoPeriods = 8

// periodSlot is one time period of the service memo: per replica, the
// descriptor ID and its resolved set, filled lazily.
type periodSlot struct {
	period uint32
	ok     [onion.Replicas]bool
	id     [onion.Replicas]onion.DescriptorID
	set    [onion.Replicas]respSet
}

// fetchScratch is one fetch worker's service memo. Traffic plans list
// requests grouped by service, so consecutive service fetches repeat the
// same service; the memo keeps up to memoPeriods of its time periods,
// the oldest evicted first once all are in use, and starts over when the
// service changes. Every slot holds a pure function of (service,
// period, replica), so what the memo holds never changes an outcome.
// Phantom requests read the window's phantomTable instead.
type fetchScratch struct {
	permID onion.PermanentID
	slots  [memoPeriods]periodSlot
	misses int // periods of permID taken in; the next goes to slot misses%memoPeriods
}

// lookup returns the descriptor ID of (permID, period, replica) and its
// resolved responsible set, deriving both on a miss.
func (sc *fetchScratch) lookup(n *Network, permID onion.PermanentID, period uint32, replica uint8) (onion.DescriptorID, *respSet) {
	if sc.misses == 0 || sc.permID != permID {
		sc.permID, sc.misses = permID, 0
	}
	var sl *periodSlot
	for k := range sc.slots[:min(sc.misses, memoPeriods)] {
		if sc.slots[k].period == period {
			sl = &sc.slots[k]
			break
		}
	}
	if sl == nil {
		sl = &sc.slots[sc.misses%memoPeriods]
		sc.misses++
		sl.period, sl.ok = period, [onion.Replicas]bool{}
	}
	if !sl.ok[replica] {
		sl.ok[replica] = true
		sl.id[replica] = n.secrets.DescriptorIDForPeriod(permID, period, replica)
		sl.set[replica] = n.resolve(sl.id[replica])
	}
	return sl.id[replica], &sl.set[replica]
}

// fetchRec is the compact, pointer-free record of one fetch. When an
// observer is tapped in, each DriveWindow shard buffers one per request
// whose directory is observed (the garbage collector never scans the
// buffers) and the sequential replay materialises FetchEvents from them.
type fetchRec struct {
	descID   onion.DescriptorID
	guard    onion.Fingerprint
	atNanos  int64
	clientID int32
	// dir is the ring position of the directory that took the request
	// (the event's Dir field); observed reports whether that directory
	// is observed, which it always is on an unrestricted network.
	dir      int32
	observed bool
	found    bool
}

// event materialises the FetchEvent a record describes, formatting its
// client's address the first time an event names the client. It runs in
// the sequential replay only.
func (n *Network) event(rec *fetchRec) FetchEvent {
	c := &n.clients[rec.clientID]
	if c.IP == "" {
		c.IP = geo.FormatIP(c.octets)
	}
	return FetchEvent{
		Client: c,
		Guard:  rec.guard,
		Dir:    n.ringFPs[rec.dir],
		DescID: rec.descID,
		Found:  rec.found,
		At:     time.Unix(0, rec.atNanos).UTC(),
	}
}

// orderBounds[i] is the range of the i-th draw of a fetch's contact
// order, rand.Rand.Intn(i+1).
var orderBounds = func() (b [onion.SpreadPerReplica]parallel.Bound) {
	for i := range b {
		b[i] = parallel.IntnBound(i + 1)
	}
	return b
}()

// fetchResolved runs one fetch of descID over its resolved responsible
// set, every draw read from the request's stream: the guard pick, the
// random contact order, and the probe of the first directory in that
// order, which an unobserved directory skips. gs is the requesting
// client's guard set, or nil when nothing reads the guard and none can
// rotate: the guard draw is then made and its guard left unread. The
// record's clientID is the caller's to fill.
func (n *Network) fetchResolved(draws *parallel.Stream, gs *guardSet, descID onion.DescriptorID, set *respSet, now time.Time) fetchRec {
	rec := fetchRec{descID: descID, atNanos: now.UnixNano()}
	if gs != nil {
		rec.guard = gs.pick(n.pool, draws, now)
	} else {
		draws.Draw(guardIndex)
	}
	// Order the responsible directories at random, as the Tor client
	// does. The permutation replays math/rand.Perm's exact draw sequence
	// into a stack buffer (rand.Perm would heap-allocate per fetch);
	// set.n never exceeds onion.SpreadPerReplica, and the i=0 iteration
	// swaps order[0] with itself but still consumes one Intn draw —
	// math/rand.Perm does the same, and the stream (and with it every
	// driven window) must not shift. Only order[0] is read, but every
	// draw is made.
	var order [onion.SpreadPerReplica]int32
	for i := range int(set.n) {
		j := draws.Draw(orderBounds[i])
		order[i] = order[j]
		order[j] = int32(i)
	}
	rec.dir = set.pos[order[0]]
	if d := n.dirs[rec.dir]; d != nil {
		_, rec.found = d.Probe(descID, now)
		rec.observed = true
	}
	return rec
}

// TrafficStats summarises a driven measurement window.
type TrafficStats struct {
	TotalRequests   int
	PhantomRequests int
	ResolvedHits    int
}

// planCursor walks a driven window's request plan without laying it out.
// The plan lists offs[s+1]-offs[s] requests for each popular service s,
// in service order, then the phantom requests from plan index
// offs[len(offs)-1] on; offs holds the prefix offsets of the per-service
// counts. A shard seeks once, to its first plan index, then steps forward.
type planCursor struct {
	offs []int32
	s    int
}

// seekPlan returns a cursor at plan index i: on the first service whose
// requests end after i, which skips every zero-count service before it.
func seekPlan(offs []int32, i int) planCursor {
	last := len(offs) - 1
	return planCursor{offs: offs, s: sort.Search(last, func(k int) bool { return int(offs[k+1]) > i })}
}

// service returns the index of the service plan index i requests, or -1
// when i is a phantom request. Successive calls must not decrease i.
func (c *planCursor) service(i int) int {
	last := len(c.offs) - 1
	for c.s < last && int(c.offs[c.s+1]) <= i {
		c.s++
	}
	if c.s == last {
		return -1
	}
	return c.s
}

// Window-sized scratch buffers are pooled across DriveWindow calls (and
// across the per-step networks of a trawl): every slot is overwritten
// before it is read, so reuse can never change an outcome — it only
// stops each window from allocating and zeroing megabytes of record,
// answer, phantom and dead-bucket buffers. The record and answer pools
// hold one buffer per shard.
var (
	recsPool    = sync.Pool{New: func() any { return new([][]fetchRec) }}
	answersPool = sync.Pool{New: func() any { return new([][]hsdir.Answer) }}
	phantomPool = sync.Pool{New: func() any { return new([]phantom) }}
	i32Pool     = sync.Pool{New: func() any { return new([]int32) }}
	u64Pool     = sync.Pool{New: func() any { return new([]uint64) }}
	hitPool     = sync.Pool{New: func() any { return new([]*hspop.SortedID) }}
)

// grabSlice returns a zero-length slice with capacity >= n from the
// pooled backing array, growing it if needed.
func grabSlice[T any](pool *sync.Pool, n int) *[]T {
	p := pool.Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, 0, n)
	}
	*p = (*p)[:0]
	return p
}

// grabZeroed returns a length-n zeroed slice from the pooled backing
// array (grabSlice hands out dirty capacity; counting buffers need
// zeroes).
func grabZeroed[T any](pool *sync.Pool, n int) *[]T {
	p := grabSlice[T](pool, n)
	var zero T
	s := (*p)[:n]
	for i := range s {
		s[i] = zero
	}
	*p = s
	return p
}

// warmGuardSets rotates-in the guard set of every client, using the
// network RNG sequentially, refreshing any guard that would expire
// before horizon. DriveWindow calls it before fanning out so that
// concurrent fetches only *read* guard state: after warming, every
// guard's expiry lies beyond the window's end.
func (n *Network) warmGuardSets(now, horizon time.Time) {
	for i := range n.clients {
		n.clients[i].gs.refreshPoolUntil(n.pool, n.rng, now, horizon)
	}
}

// ensureSecrets makes sure the shared secret table covers every local
// clock a client may use inside [start, end]. Called from the sequential
// planning phase only; phase-2 workers read the table immutably.
func (n *Network) ensureSecrets(start, end time.Time) {
	lo := start.Add(-MaxSkew - 24*time.Hour)
	hi := end.Add(MaxSkew + 24*time.Hour)
	if n.secrets == nil || !n.secrets.Covers(lo, hi) {
		n.secrets = onion.NewSecretIDTable(lo, hi)
	}
}

// DriveWindow generates descriptor-fetch traffic over a measurement
// window of the given duration starting at start: Poisson counts around
// each popular service's expected rate, plus phantom requests for
// never-published descriptor IDs at the configured fraction. The observer
// callback (optional) sees the fetch events — this is where the
// signature attack taps in. On an unrestricted network it sees every
// event; on a restricted one, exactly the unrestricted network's events
// whose Dir is observed, in the same order.
//
// Execution is three-phase so cfg.Workers never changes the outcome:
// the per-service request counts are drawn sequentially from the network
// RNG; the fetches execute concurrently, each on the stream seeded by its
// plan index, probing the descriptor stores lock-free; and the shards'
// results merge sequentially in plan order. Per-request memory is kept
// only where something reads it: when an observer is tapped in, each
// shard keeps one record per request whose directory is observed
// (replayed to the observer in plan order), and a restricted network
// keeps the (ID, found) pairs its observed directories answered (folded
// into its log in one locked pass). A window with no observer keeps only
// per-shard tallies and reads no guard state: a request draws its guard
// and leaves it unread, and reads its client only for a popular
// service's clock skew.
//
// A restricted window skips every request no observed directory is
// responsible for, right after the draws that pick its target: none of
// its events can name an observed directory. Most of those are phantoms,
// and a per-window bitmap over the cut table's buckets lets a phantom
// whose draw can only pick unobserved entries stop before the table is
// even scanned: it is a request the window would skip anyway, at the
// same point in its draw sequence, so the bitmap moves no count and no
// byte of output.
//
// The window is the cancellation unit: ctx is checked on entry and
// before each service's count is drawn, before any descriptor store or
// the network log mutates. Once the fetch fan-out starts the window runs
// to completion, so a nil error means the window's effects are fully
// applied and a ctx.Err() return means no store and no log changed. A
// window cancelled before its first count leaves the network exactly as
// it was and can be replayed; one cancelled between counts has advanced
// the network RNG by the counts drawn, so its network cannot replay it
// (callers drop the network of a cancelled window).
//
//torhs:cancelpoint
func (n *Network) DriveWindow(
	ctx context.Context,
	pop *hspop.Population,
	start time.Time,
	window time.Duration,
	observer func(FetchEvent),
) (TrafficStats, error) {
	// The window boundary is a fault site (crash/slow only: the method
	// surfaces no transient errors — its only error is cancellation).
	fault.MustHit(fault.SiteSimWindow)

	var out TrafficStats
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Phase 1: draw one Poisson count per popular service, in service
	// order, from the network RNG, kept as the plan's prefix offsets:
	// offs[s] is the plan index of svcs[s]'s first request and
	// offs[len(svcs)] that of the first phantom. The draws must complete
	// once started (a partial draw would desync the sequential stream), so
	// cancellation is observed between services, before the plan seed is
	// drawn and any state below is touched.
	svcs := pop.PopularServices()
	offsPtr := grabZeroed[int32](&i32Pool, len(svcs)+1)
	defer i32Pool.Put(offsPtr)
	offs := *offsPtr
	for i, svc := range svcs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		offs[i+1] = offs[i] + int32(stats.Poisson(n.rng, svc.ExpectedRequests))
	}
	realTotal := int(offs[len(svcs)])
	total := realTotal + phantomRequests(pop, realTotal)

	// Phantom pool: never-published descriptor IDs, power-law weighted.
	nPhantomIDs := pop.Config.ScaledPhantomIDs()
	phantomPtr := grabSlice[phantom](&phantomPool, nPhantomIDs)
	defer phantomPool.Put(phantomPtr)
	phantoms := phantomTable((*phantomPtr)[:nPhantomIDs])
	for i := range phantoms {
		phantoms[i].id = onion.DescriptorID(onion.RandomFingerprint(n.rng))
	}
	planSeed := n.rng.Int63()
	end := start.Add(window)
	n.warmGuardSets(start, end)
	n.ensureSecrets(start, end)

	// Phase 2: execute the fetches concurrently. Each request draws only
	// from the stream seeded by (planSeed, index), probes the descriptor
	// stores without taking any lock, and notes which directory answered.
	// Every shard is fully private: its own plan cursor, service memo,
	// stats tally, record and answer buffers — zero cross-shard
	// synchronization until the merge. Warmed guard sets are only read:
	// warming refreshed every guard that would expire before end. A
	// freshly refreshed guard is stable for minGuardLifetime, so for
	// windows that long or longer the no-mid-window-rotation guarantee
	// cannot hold: every request then reads its guard set, and we fall
	// back to serial execution (identical results at every Workers value
	// either way, since the plan index already fixes each request's
	// stream).
	rotating := window >= minGuardLifetime
	workers := n.workers
	if rotating {
		workers = 1
	}
	shards := parallel.NumChunks(workers, total)
	if shards == 0 {
		return out, nil
	}
	// Most requests are phantoms drawn from a small pool, so each
	// phantom ID's responsible set is resolved once, up front, and the
	// fetches read it from the table.
	phantoms.resolve(n, workers)
	// A restricted network skips the requests that no observed directory
	// is responsible for. That needs each request's stream to be the only
	// source of its draws, which holds only while no guard rotates
	// mid-window (the same condition as the fan-out). A window that skips
	// also marks the cut-table buckets whose draws can only pick such
	// phantoms, so most skipped phantoms stop at their draw.
	skip := n.Restricted() && !rotating
	cuts := cutsFor(len(phantoms))
	var dead []uint64
	if skip {
		words := (len(cuts.first) + 63) / 64
		deadPtr := grabSlice[uint64](&u64Pool, words)
		defer u64Pool.Put(deadPtr)
		dead = (*deadPtr)[:words]
		phantoms.deadBuckets(cuts, dead)
	}
	ph := phantomSampler{table: phantoms, cuts: cuts, dead: dead}
	// The ranges of each request's bounded draws, as Int63n and Intn take them.
	offsets, clients, replicas := parallel.Int63nBound(int64(window)), parallel.IntnBound(len(n.clients)), parallel.IntnBound(onion.Replicas)
	// Each shard's record and answer buffers are presized to the
	// requests an observed directory is expected to answer: on a
	// restricted network, the observed share of the ring, plus every
	// request of a hot service — one whose descriptor an observed
	// directory stores at the window's start (the Fig. 3 target's
	// requests all are).
	share, hot := 1.0, []int(nil)
	if n.Restricted() {
		share = n.observedShare()
		if observer != nil {
			hot = n.hotServices(pop, svcs, offs, start)
		}
	}
	var recs [][]fetchRec // pointer-free: never GC-scanned
	if observer != nil {
		recsPtr := grabSlice[[]fetchRec](&recsPool, shards)
		defer recsPool.Put(recsPtr)
		recs = (*recsPtr)[:shards] // keeps each slot's pooled buffer
	}
	var answers [][]hsdir.Answer
	if n.Restricted() {
		answersPtr := grabSlice[[]hsdir.Answer](&answersPool, shards)
		defer answersPool.Put(answersPtr)
		answers = (*answersPtr)[:shards]
	}
	// Both counts are fixed by the plan; only the hits are tallied, in a
	// shard-local count stored once per shard.
	out = TrafficStats{TotalRequests: total, PhantomRequests: total - realTotal}
	shardHits := make([]int, shards)
	parallel.Chunks(shards, total, func(shard, lo, hi int) {
		var sc fetchScratch
		ph := ph // a shard-local copy keeps the shared sampler off the heap
		hits := 0
		cur := seekPlan(offs, lo)
		want := expectedAnswers(lo, hi, share, offs, hot)
		var kept []fetchRec
		if recs != nil {
			kept = presized(recs[shard], want)
		}
		var ans []hsdir.Answer
		if answers != nil {
			ans = presized(answers[shard], want)
		}
		for i := lo; i < hi; i++ {
			// Every draw of the request reads its stream: its offset, its
			// client, its phantom's draw or its replica, then its fetch's.
			draws := parallel.StreamAt(parallel.SeedFor(planSeed, int64(i)))
			at := start.Add(time.Duration(draws.Draw(offsets)))
			ci := int32(draws.Draw(clients))
			var id onion.DescriptorID
			var set *respSet
			if s := cur.service(i); s < 0 {
				p := ph.pick(draws.Float64())
				if p == nil {
					continue // a dead bucket: every phantom it can pick is skipped
				}
				id, set = p.id, &p.set
			} else {
				replica := uint8(draws.Draw(replicas))
				permID := svcs[s].PermID
				id, set = sc.lookup(n, permID, onion.TimePeriod(permID, n.clients[ci].LocalTime(at)), replica)
			}
			if skip && !set.observed {
				// No observed directory could answer it, so no event it
				// makes names one, and the request draws from its own
				// stream, so its other draws cannot shift any request.
				continue
			}
			var gs *guardSet
			if recs != nil || rotating {
				gs = &n.clients[ci].gs
			}
			rec := n.fetchResolved(&draws, gs, id, set, at)
			if rec.found {
				hits++
			}
			if recs != nil && rec.observed {
				rec.clientID = ci
				kept = append(kept, rec)
			}
			if answers != nil && rec.observed {
				ans = append(ans, hsdir.Answer{ID: rec.descID, Found: rec.found})
			}
		}
		shardHits[shard] = hits
		if recs != nil {
			recs[shard] = kept
		}
		if answers != nil {
			answers[shard] = ans
		}
	})

	// Phase 3: merge. The hits sum; the observer — when one is tapped
	// in — replays the shards' records sequentially, and a restricted
	// network counts its shards' answers, both in shard order (chunk
	// spans are contiguous and ascending, so that is plan order).
	for _, h := range shardHits {
		out.ResolvedHits += h
	}
	for _, kept := range recs {
		for i := range kept {
			observer(n.event(&kept[i]))
		}
	}
	if answers != nil {
		n.log.RecordEach(answers)
	}
	return out, nil
}

// observedShare is the fraction of ring positions a restricted network
// observes: about the share of its requests an observed directory
// answers.
func (n *Network) observedShare() float64 {
	observed := 0
	for _, d := range n.dirs {
		if d != nil {
			observed++
		}
	}
	return float64(observed) / float64(len(n.dirs))
}

// hotServices returns, in plan order, the indices of the services of
// svcs with requests in the plan (offs) that have a descriptor ID at
// instant at stored on an observed directory.
func (n *Network) hotServices(pop *hspop.Population, svcs []*hspop.Service, offs []int32, at time.Time) []int {
	ids := pop.DescriptorIDsAt(at)
	stored := make(map[*hspop.Service]bool)
	withDesc := pop.WithDescriptor()
	for q := range n.dirs {
		if lo, hi, ok := n.observedSegment(q); ok {
			ids.EachIn(lo, hi, func(e *hspop.SortedID) { stored[withDesc[e.Svc]] = true })
		}
	}
	var hot []int
	for s, svc := range svcs {
		if offs[s+1] > offs[s] && stored[svc] {
			hot = append(hot, s)
		}
	}
	return hot
}

// expectedAnswers is the number of plan indices [lo, hi) that an observed
// directory is expected to answer, with headroom for skew (phantom
// popularity, ring clustering), so that a fresh buffer of that size
// rarely grows, and never more than the span: every request to a hot
// service (see hotServices) and the observed share of the rest.
func expectedAnswers(lo, hi int, share float64, offs []int32, hot []int) int {
	inHot := 0
	for _, s := range hot {
		inHot += max(0, min(hi, int(offs[s+1]))-max(lo, int(offs[s])))
	}
	return min(hi-lo, inHot+int(float64(hi-lo-inHot)*share*1.25)+64)
}

// presized empties a shard's pooled buffer, first growing it to hold
// want entries.
func presized[T any](buf []T, want int) []T {
	if cap(buf) < want {
		return make([]T, 0, want)
	}
	return buf[:0]
}

// phantomRequests is the number of phantom requests that accompany
// realTotal real ones at the population's phantom fraction.
func phantomRequests(pop *hspop.Population, realTotal int) int {
	frac := pop.Config.PhantomRequestFraction
	if frac <= 0 {
		return 0
	}
	return int(float64(realTotal) * frac / (1 - frac))
}
