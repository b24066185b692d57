package popularity

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
)

func window() (time.Time, time.Time) {
	return time.Date(2013, 1, 28, 0, 0, 0, 0, time.UTC),
		time.Date(2013, 2, 8, 0, 0, 0, 0, time.UTC)
}

func makeServices(n int, seed int64) map[onion.Address]onion.PermanentID {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[onion.Address]onion.PermanentID, n)
	for i := 0; i < n; i++ {
		k := onion.GenerateKey(rng)
		out[onion.AddressFromKey(k)] = k.PermanentID()
	}
	return out
}

// build is BuildIndexTable with a fresh secret table, failing the test
// on error.
func build(t testing.TB, services map[onion.Address]onion.PermanentID, from, to time.Time, workers int) *Index {
	t.Helper()
	ix, err := BuildIndexTable(services, from, to, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// windowCounts requests every descriptor ID each service uses inside
// [from, to], the service's i-th ID i+1 times, and returns the expected
// per-address volume alongside.
func windowCounts(services map[onion.Address]onion.PermanentID, from, to time.Time) (map[onion.DescriptorID]int, map[onion.Address]int) {
	counts := make(map[onion.DescriptorID]int)
	perAddr := make(map[onion.Address]int)
	for addr, permID := range services {
		for i, id := range onion.DescriptorIDsOverRange(permID, from, to) {
			counts[id] = i + 1
			perAddr[addr] += i + 1
		}
	}
	return counts, perAddr
}

// phantoms adds n random never-derived IDs with count 2 each.
func phantoms(counts map[onion.DescriptorID]int, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		counts[onion.DescriptorID(onion.RandomFingerprint(rng))] = 2
	}
}

func TestBuildIndexValidation(t *testing.T) {
	from, to := window()
	if _, err := BuildIndexTable(nil, to, from, 0, nil); err == nil {
		t.Fatal("inverted window accepted")
	}
}

// TestBuildIndexCoversWindow checks that every ID any service uses in
// the window resolves to that service.
func TestBuildIndexCoversWindow(t *testing.T) {
	from, to := window()
	services := makeServices(20, 1)
	counts, perAddr := windowCounts(services, from, to)
	// 12 days × 2 replicas × 20 services (±1 period from the offset).
	if len(counts) < 20*11*2 {
		t.Fatalf("window holds %d IDs, want >= %d", len(counts), 20*11*2)
	}
	mid := from.Add(5 * 24 * time.Hour)
	for _, permID := range services {
		for _, id := range onion.DescriptorIDs(permID, mid) {
			if _, ok := counts[id]; !ok {
				t.Fatal("mid-window ID missing from the window's IDs")
			}
		}
	}
	res := resolveCounts(counts, build(t, services, from, to, 0))
	if res.ResolvedIDs != len(counts) || res.UniqueIDs != len(counts) {
		t.Fatalf("resolved %d of %d IDs (unique %d)", res.ResolvedIDs, len(counts), res.UniqueIDs)
	}
	if !reflect.DeepEqual(res.PerAddress, perAddr) {
		t.Fatal("window IDs resolve to the wrong addresses")
	}
}

// TestBuildIndexWorkersIdenticalAcrossCounts checks the hard invariant of
// the sharded resolve: every worker count produces the same resolution.
func TestBuildIndexWorkersIdenticalAcrossCounts(t *testing.T) {
	from, to := window()
	services := makeServices(30, 2)
	counts, _ := windowCounts(services, from, to)
	phantoms(counts, 40, 3)
	base := resolveCounts(counts, build(t, services, from, to, 1))
	if base.ResolvedIDs != len(counts)-40 {
		t.Fatalf("resolved %d IDs, want %d", base.ResolvedIDs, len(counts)-40)
	}
	for _, workers := range []int{2, 3, 7, 0} {
		if got := resolveCounts(counts, build(t, services, from, to, workers)); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: resolution %+v, want %+v", workers, got, base)
		}
	}
}

// TestBuildIndexEmptyServices covers the zero-shard path: nothing
// resolves, but every request is still counted.
func TestBuildIndexEmptyServices(t *testing.T) {
	from, to := window()
	counts, _ := windowCounts(makeServices(3, 4), from, to)
	for _, workers := range []int{1, 2, 0} {
		res := resolveCounts(counts, build(t, nil, from, to, workers))
		if res.ResolvedIDs != 0 || res.ResolvedAddresses != 0 || res.ResolvedRequests != 0 {
			t.Fatalf("workers=%d: empty index resolved %+v", workers, res)
		}
		if res.UniqueIDs != len(counts) {
			t.Fatalf("workers=%d: unique IDs %d, want %d", workers, res.UniqueIDs, len(counts))
		}
	}
}

// TestRequestedSetFindsEveryID fills the probe set to its sized capacity
// and checks every member is found at its entry and no other ID is.
func TestRequestedSetFindsEveryID(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 500
	req := newRequested(n)
	for i := 0; i < n; i++ {
		req.add(onion.DescriptorID(onion.RandomFingerprint(rng)), i)
	}
	for i, id := range req.ids {
		if k := req.find(&id); k != i || req.counts[k] != i {
			t.Fatalf("find(%x) = %d, want %d", id, k, i)
		}
	}
	for i := 0; i < n; i++ {
		id := onion.DescriptorID(onion.RandomFingerprint(rng))
		// Same tag as a member, different ID: the tag alone must not match.
		twin := req.ids[i]
		twin[19] ^= 1
		for _, absent := range []onion.DescriptorID{id, twin} {
			if k := req.find(&absent); k >= 0 {
				t.Fatalf("absent ID %x found at %d", absent, k)
			}
		}
	}
	if k := req.find(&onion.DescriptorID{}); k >= 0 {
		t.Fatalf("zero ID found at %d", k)
	}
}

// TestRequestedFindDoesNotAllocate pins the resolver's inner probe: the
// resolution calls find once per derived window ID, so a hit or a miss
// must allocate nothing.
func TestRequestedFindDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	req := newRequested(64)
	for i := 0; i < 64; i++ {
		req.add(onion.DescriptorID(onion.RandomFingerprint(rng)), i)
	}
	hit := req.ids[17]
	miss := onion.DescriptorID(onion.RandomFingerprint(rng))
	if avg := testing.AllocsPerRun(100, func() {
		if req.find(&hit) != 17 || req.find(&miss) >= 0 {
			t.Fatal("find answers wrongly")
		}
	}); avg != 0 {
		t.Fatalf("find allocates %v times per hit and miss, want 0", avg)
	}
}

// TestResolveForcedCollisions gives several addresses one permanent ID,
// so every ID they derive collides, and checks the resolver against the
// brute-force oracle and the later-address-wins rule at several worker
// counts, through both Resolve and ResolveLog.
func TestResolveForcedCollisions(t *testing.T) {
	from, to := window()
	services := makeServices(24, 9)
	addrs := make([]onion.Address, 0, len(services))
	for a := range services {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	// Pairs in one shard and across shards at 2 and 8 workers, and one
	// triple; the winner of each group is its last address.
	groups := [][]int{{0, 23}, {3, 4}, {10, 11, 17}}
	for _, g := range groups {
		for _, i := range g[1:] {
			services[addrs[i]] = services[addrs[g[0]]]
		}
	}
	counts, _ := windowCounts(services, from, to)
	phantoms(counts, 20, 10)
	log := hsdir.NewRequestLog()
	for id, n := range counts {
		for ; n > 0; n-- {
			log.RecordEach([][]hsdir.Answer{{{ID: id}}})
		}
	}
	oracle := ResolveBruteForce(counts, services, from, to)
	for _, g := range groups {
		for _, i := range g[:len(g)-1] {
			if n, ok := oracle.PerAddress[addrs[i]]; ok {
				t.Fatalf("oracle resolved %d requests to the losing address %d", n, i)
			}
		}
		if oracle.PerAddress[addrs[g[len(g)-1]]] == 0 {
			t.Fatal("oracle resolved nothing to a group's winning address")
		}
	}
	for _, workers := range []int{1, 2, 8} {
		ix := build(t, services, from, to, workers)
		if got := resolveCounts(counts, ix); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("workers=%d: Resolve %+v, oracle %+v", workers, got, oracle)
		}
		if got := ResolveLog(log, ix); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("workers=%d: ResolveLog %+v, oracle %+v", workers, got, oracle)
		}
	}
}

func TestResolveRoundTrip(t *testing.T) {
	from, to := window()
	services := makeServices(50, 2)
	ix := build(t, services, from, to, 0)

	// Simulate requests: 10 services requested with known counts, plus
	// phantom IDs.
	rng := rand.New(rand.NewSource(3))
	counts := make(map[onion.DescriptorID]int)
	wantPerAddr := map[onion.Address]int{}
	i := 0
	for addr, permID := range services {
		if i >= 10 {
			break
		}
		i++
		at := from.Add(time.Duration(rng.Intn(10*24)) * time.Hour)
		ids := onion.DescriptorIDs(permID, at)
		counts[ids[0]] += 5 * i
		counts[ids[1]] += 3
		wantPerAddr[addr] = 5*i + 3
	}
	phantomTotal := 0
	for p := 0; p < 30; p++ {
		f := onion.RandomFingerprint(rng)
		var id onion.DescriptorID
		copy(id[:], f[:])
		counts[id] = 7
		phantomTotal += 7
	}

	res := resolveCounts(counts, ix)
	if res.ResolvedAddresses != 10 {
		t.Fatalf("resolved addresses = %d, want 10", res.ResolvedAddresses)
	}
	if res.UniqueIDs != len(counts) {
		t.Fatalf("unique IDs = %d, want %d", res.UniqueIDs, len(counts))
	}
	for addr, want := range wantPerAddr {
		if res.PerAddress[addr] != want {
			t.Fatalf("address %s count = %d, want %d", addr, res.PerAddress[addr], want)
		}
	}
	if res.TotalRequests != res.ResolvedRequests+phantomTotal {
		t.Fatal("phantom requests leaked into resolved volume")
	}
}

func TestResolveBruteForceMatchesIndexed(t *testing.T) {
	from, to := window()
	services := makeServices(15, 4)

	rng := rand.New(rand.NewSource(5))
	counts := make(map[onion.DescriptorID]int)
	for _, permID := range services {
		at := from.Add(time.Duration(rng.Intn(8*24)) * time.Hour)
		counts[onion.ComputeDescriptorID(permID, at, 0)] = 1 + rng.Intn(50)
	}
	phantoms(counts, 10, 6)

	slow := ResolveBruteForce(counts, services, from, to)
	if slow.ResolvedIDs != len(counts)-10 {
		t.Fatalf("oracle resolved %d IDs, want %d", slow.ResolvedIDs, len(counts)-10)
	}
	for _, workers := range []int{1, 2, 8} {
		if fast := resolveCounts(counts, build(t, services, from, to, workers)); !reflect.DeepEqual(fast, slow) {
			t.Fatalf("workers=%d: brute force diverges: fast=%+v slow=%+v", workers, fast, slow)
		}
	}
}

func TestRankOrderingAndLabels(t *testing.T) {
	res := &Resolution{PerAddress: map[onion.Address]int{
		"aaaaaaaaaaaaaaaa": 100,
		"bbbbbbbbbbbbbbbb": 300,
		"cccccccccccccccc": 200,
	}}
	labels := map[onion.Address]string{"bbbbbbbbbbbbbbbb": "Goldnet"}
	ranking := Rank(res, func(a onion.Address) string { return labels[a] })

	if ranking[0].Addr != "bbbbbbbbbbbbbbbb" || ranking[0].Rank != 1 {
		t.Fatalf("rank 1 = %+v", ranking[0])
	}
	if ranking[0].Label != "Goldnet" {
		t.Fatal("label missing")
	}
	if ranking[1].Requests != 200 || ranking[2].Requests != 100 {
		t.Fatal("ordering wrong")
	}
	if ranking[1].Label != "" || ranking[2].Label != "" {
		t.Fatal("unlabelled addresses labelled")
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	res := &Resolution{PerAddress: map[onion.Address]int{
		"zzzzzzzzzzzzzzzz": 5,
		"aaaaaaaaaaaaaaaa": 5,
	}}
	r1 := Rank(res, nil)
	r2 := Rank(res, nil)
	if r1[0].Addr != r2[0].Addr || r1[0].Addr != "aaaaaaaaaaaaaaaa" {
		t.Fatal("tie break not deterministic by address")
	}
}

// TestResolutionWindowAblation reproduces why the paper resolves over a
// ±days window (28 Jan – 8 Feb): clients with skewed clocks request
// descriptor IDs for the wrong day. A window covering only the
// measurement day misses them; widening the window recovers them.
func TestResolutionWindowAblation(t *testing.T) {
	day := time.Date(2013, 2, 4, 12, 0, 0, 0, time.UTC)
	services := makeServices(40, 7)

	// Half the requests use correct clocks; half are skewed ±1–3 days.
	rng := rand.New(rand.NewSource(8))
	counts := make(map[onion.DescriptorID]int)
	i := 0
	for _, permID := range services {
		at := day
		if i%2 == 1 {
			offset := time.Duration(1+rng.Intn(3)) * 24 * time.Hour
			if rng.Intn(2) == 0 {
				offset = -offset
			}
			at = day.Add(offset)
		}
		counts[onion.ComputeDescriptorID(permID, at, 0)]++
		i++
	}

	narrow := resolveCounts(counts, build(t, services, day, day, 0))
	wide := resolveCounts(counts, build(t, services, day.Add(-4*24*time.Hour), day.Add(4*24*time.Hour), 0))

	if narrow.ResolvedIDs >= wide.ResolvedIDs {
		t.Fatalf("narrow window resolved %d, wide %d — skew handling broken",
			narrow.ResolvedIDs, wide.ResolvedIDs)
	}
	// The wide window must recover everything.
	if wide.ResolvedIDs != len(counts) {
		t.Fatalf("wide window resolved %d of %d", wide.ResolvedIDs, len(counts))
	}
	// The narrow window still catches the correct-clock half.
	if narrow.ResolvedIDs < len(counts)/3 {
		t.Fatalf("narrow window resolved only %d of %d", narrow.ResolvedIDs, len(counts))
	}
}

func TestResolveEmptyLog(t *testing.T) {
	from, to := window()
	ix := build(t, makeServices(3, 6), from, to, 0)
	res := resolveCounts(nil, ix)
	if res.TotalRequests != 0 || res.ResolvedAddresses != 0 {
		t.Fatalf("empty log resolution = %+v", res)
	}
	if got := ResolveLog(hsdir.NewRequestLog(), ix); !reflect.DeepEqual(got, res) {
		t.Fatalf("empty request log resolution = %+v", got)
	}
}

// resolveCounts joins per-descriptor-ID request counts with the index,
// as ResolveLog joins a log's counts.
func resolveCounts(counts map[onion.DescriptorID]int, ix *Index) *Resolution {
	req := newRequested(len(counts))
	for id, n := range counts {
		req.add(id, n)
	}
	return ix.resolve(req)
}
