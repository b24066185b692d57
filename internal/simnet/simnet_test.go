package simnet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/relaynet"
)

func buildNetwork(t *testing.T, seed int64) (*Network, *hspop.Population, time.Time) {
	t.Helper()
	fleet := relaynet.DefaultFleetConfig(seed)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := h.All()[0]

	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.Clients = 500
	net, err := NewNetwork(doc, db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, pop, doc.ValidAfter
}

func TestNewNetworkValidation(t *testing.T) {
	fleet := relaynet.DefaultFleetConfig(1)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Clients = 0
	if _, err := NewNetwork(h.All()[0], db, cfg); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestPublishAllStoresDescriptorsOnResponsibleDirs(t *testing.T) {
	net, pop, now := buildNetwork(t, 2)
	published := net.PublishAll(pop, now)
	if published != len(pop.WithDescriptor()) {
		t.Fatalf("published %d, want %d", published, len(pop.WithDescriptor()))
	}

	// Every service's descriptors must be fetchable from all responsible
	// directories.
	svc := pop.WithDescriptor()[0]
	for _, descID := range onion.DescriptorIDs(svc.PermID, now) {
		for _, fp := range net.Ring().Responsible(descID, onion.SpreadPerReplica) {
			dir, ok := net.Directory(fp)
			if !ok {
				t.Fatal("responsible directory missing")
			}
			desc, found := dir.Probe(descID, now)
			if !found {
				t.Fatal("descriptor not stored on responsible directory")
			}
			if desc.Address != svc.Address {
				t.Fatal("wrong descriptor stored")
			}
		}
	}
}

// fetchService runs one fetch of the service's descriptor the way a
// driven window's shard that keeps records does: the client's own clock
// picks the time period, a replica is drawn, sc resolves the ID and
// fetchResolved picks the client's guard and contacts the directories.
func fetchService(n *Network, draws *parallel.Stream, c *Client, permID onion.PermanentID, now time.Time, sc *fetchScratch) fetchRec {
	replica := uint8(draws.Intn(onion.Replicas))
	id, set := sc.lookup(n, permID, onion.TimePeriod(permID, c.LocalTime(now)), replica)
	return fetchAs(n, draws, c, id, set, now)
}

// fetchAs is fetchResolved for client c, with the record's client
// filled in.
func fetchAs(n *Network, draws *parallel.Stream, c *Client, id onion.DescriptorID, set *respSet, now time.Time) fetchRec {
	rec := n.fetchResolved(draws, &c.gs, id, set, now)
	rec.clientID = int32(c.ID)
	return rec
}

// skewFreeClient returns the network's first client with a correct clock.
func skewFreeClient(t *testing.T, n *Network) *Client {
	t.Helper()
	for i := range n.clients {
		if n.clients[i].ClockSkew == 0 {
			return &n.clients[i]
		}
	}
	t.Fatal("no skew-free client")
	return nil
}

func TestFetchDescriptorFindsPublished(t *testing.T) {
	net, pop, now := buildNetwork(t, 3)
	net.PublishAll(pop, now)
	client := skewFreeClient(t, net)
	svc := pop.WithDescriptor()[0]

	found := 0
	var sc fetchScratch
	draws := parallel.StreamAt(3)
	for i := 0; i < 20; i++ {
		if fetchService(net, &draws, client, svc.PermID, now.Add(time.Minute), &sc).found {
			found++
		}
	}
	// A client with a correct clock must almost always succeed.
	if found < 15 {
		t.Fatalf("found %d/20 fetches for published descriptor", found)
	}
}

// TestSkewedClockFetchesAnotherPeriod: a client whose clock runs a day or
// more off derives the descriptor ID of another time period, which no
// directory stores, so its fetches of a published descriptor miss.
func TestSkewedClockFetchesAnotherPeriod(t *testing.T) {
	net, pop, now := buildNetwork(t, 3)
	net.PublishAll(pop, now)
	svc := pop.WithDescriptor()[0]
	at := now.Add(time.Minute)
	c := *skewFreeClient(t, net)
	c.ClockSkew = 48 * time.Hour
	if onion.TimePeriod(svc.PermID, c.LocalTime(at)) == onion.TimePeriod(svc.PermID, at) {
		t.Fatal("a two-day skew left the client in the true period")
	}
	var sc fetchScratch
	draws := parallel.StreamAt(3)
	for i := 0; i < 20; i++ {
		rec := fetchService(net, &draws, &c, svc.PermID, at, &sc)
		if rec.found {
			t.Fatalf("fetch %d with a skewed clock found the descriptor", i)
		}
		if ids := onion.DescriptorIDs(svc.PermID, at); rec.descID == ids[0] || rec.descID == ids[1] {
			t.Fatalf("fetch %d with a skewed clock asked for the current period's ID", i)
		}
	}
}

func TestFetchRawIDNeverPublished(t *testing.T) {
	net, pop, now := buildNetwork(t, 4)
	net.PublishAll(pop, now)
	var phantom onion.DescriptorID
	phantom[0] = 0xAB
	set := net.resolve(phantom)
	draws := parallel.StreamAt(4)
	if rec := fetchAs(net, &draws, &net.clients[0], phantom, &set, now); rec.found {
		t.Fatal("phantom descriptor found")
	}
}

func TestDriveWindowStats(t *testing.T) {
	net, pop, now := buildNetwork(t, 5)
	net.PublishAll(pop, now)

	var events int
	st, _ := net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, func(ev FetchEvent) { events++ })
	if st.TotalRequests == 0 {
		t.Fatal("no requests driven")
	}
	if events != st.TotalRequests {
		t.Fatalf("observer saw %d events, stats count %d", events, st.TotalRequests)
	}
	// Phantom fraction should approximate the configured 80%.
	phantomFrac := float64(st.PhantomRequests) / float64(st.TotalRequests)
	if phantomFrac < 0.7 || phantomFrac > 0.9 {
		t.Fatalf("phantom fraction = %.2f, want ~0.8", phantomFrac)
	}
	// Most real (non-phantom) requests should resolve.
	if st.ResolvedHits == 0 {
		t.Fatal("no resolved hits")
	}
}

func TestDirFailureValidation(t *testing.T) {
	fleet := relaynet.DefaultFleetConfig(40)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(40)
	cfg.DirFailureProb = 1.0
	if _, err := NewNetwork(h.All()[0], db, cfg); err == nil {
		t.Fatal("failure probability 1.0 accepted")
	}
}

func TestDirFailureRetriesKeepFetchesWorking(t *testing.T) {
	fleet := relaynet.DefaultFleetConfig(41)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := h.All()[0]
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(41)
	cfg.Clients = 200
	cfg.DirFailureProb = 0.3
	net, err := NewNetwork(doc, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	now := doc.ValidAfter
	net.PublishAll(pop, now)

	c := skewFreeClient(t, net)
	svc := pop.WithDescriptor()[0]

	found, retried := 0, 0
	const trials = 200
	var sc fetchScratch
	draws := parallel.StreamAt(41)
	for i := 0; i < trials; i++ {
		rec := fetchService(net, &draws, c, svc.PermID, now.Add(time.Minute), &sc)
		if rec.found {
			found++
		}
		if rec.attempts > 1 {
			retried++
		}
	}
	// With 30% per-directory failure and up to 3 fallbacks, nearly every
	// fetch still succeeds (P(all 3 fail) = 2.7%).
	if float64(found)/trials < 0.9 {
		t.Fatalf("found %d/%d fetches with retries enabled", found, trials)
	}
	if retried == 0 {
		t.Fatal("no retries observed at 30% failure probability")
	}
}

func TestGuardRotationAndStability(t *testing.T) {
	pool := make([]onion.Fingerprint, 50)
	rng := rand.New(rand.NewSource(6))
	for i := range pool {
		pool[i] = onion.RandomFingerprint(rng)
	}
	c := &Client{ID: 1}
	gp := &guardPool{fps: pool}
	now := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)

	c.gs.pickPool(gp, rng, now)
	before := c.gs.guards
	// Within the 30-day minimum lifetime, the set must not change.
	for i := 0; i < 50; i++ {
		c.gs.pickPool(gp, rng, now.Add(time.Duration(i)*time.Hour))
	}
	if c.gs.guards != before {
		t.Fatal("guard set changed within lifetime")
	}
	// After 61 days every guard has expired.
	c.gs.pickPool(gp, rng, now.Add(61*24*time.Hour))
	after := c.gs.guards
	same := 0
	for i := range after {
		if after[i] == before[i] {
			same++
		}
	}
	if same == 3 {
		t.Fatal("no guard rotated after 61 days")
	}
}

func TestPickGuardReturnsMemberOfSet(t *testing.T) {
	pool := make([]onion.Fingerprint, 10)
	rng := rand.New(rand.NewSource(7))
	for i := range pool {
		pool[i] = onion.RandomFingerprint(rng)
	}
	c := &Client{ID: 2}
	now := time.Unix(0, 0)
	g := c.gs.pickPool(&guardPool{fps: pool}, rng, now)
	set := c.gs.guards
	if g != set[0] && g != set[1] && g != set[2] {
		t.Fatal("picked guard not in guard set")
	}
}

func TestSignatureAttackDetectsThroughAttackerGuards(t *testing.T) {
	net, pop, now := buildNetwork(t, 8)
	net.PublishAll(pop, now)

	target := pop.Services[0] // most popular Goldnet front
	// Attacker controls the target's responsible directories and a large
	// fraction of the guard pool (to make detection certain in-test).
	dirs := net.Ring().ResponsibleForServiceAt(target.PermID, now)
	guards := net.GuardPool()
	attack := NewSignatureAttack(target.PermID, dirs, guards)

	st, _ := net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, attack.Observe)
	if st.TotalRequests == 0 {
		t.Fatal("no traffic")
	}
	if attack.SignaturesSent() == 0 {
		t.Fatal("no signatures sent for most popular service")
	}
	dets := attack.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections despite controlling all guards")
	}
	// With all guards controlled, every signature is detected.
	if len(dets) != attack.SignaturesSent() {
		t.Fatalf("detections %d != signatures %d with full guard control",
			len(dets), attack.SignaturesSent())
	}
	hist := attack.CountryHistogram()
	sum := 0
	for _, n := range hist {
		sum += n
	}
	if sum != len(dets) {
		t.Fatal("country histogram loses detections")
	}
	if attack.UniqueClients() == 0 || attack.UniqueClients() > len(dets) {
		t.Fatalf("unique clients = %d", attack.UniqueClients())
	}
}

func TestSignatureAttackPartialGuardControl(t *testing.T) {
	net, pop, now := buildNetwork(t, 9)
	net.PublishAll(pop, now)

	target := pop.Services[0]
	dirs := net.Ring().ResponsibleForServiceAt(target.PermID, now)
	// Attacker controls only ~20% of guards.
	pool := net.GuardPool()
	attackerGuards := pool[:len(pool)/5]
	attack := NewSignatureAttack(target.PermID, dirs, attackerGuards)

	net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, attack.Observe)
	sent := attack.SignaturesSent()
	det := len(attack.Detections())
	if sent == 0 {
		t.Fatal("no signatures sent")
	}
	if det >= sent {
		t.Fatalf("partial control detected %d of %d signatures", det, sent)
	}
}

func TestSignatureAttackIgnoresOtherServices(t *testing.T) {
	net, pop, now := buildNetwork(t, 10)
	net.PublishAll(pop, now)

	// Target a service that receives no traffic (a dark one).
	var dark *hspop.Service
	for _, s := range pop.Services {
		if s.ExpectedRequests == 0 && s.DescriptorAtScan {
			dark = s
			break
		}
	}
	if dark == nil {
		t.Fatal("no dark service")
	}
	dirs := net.Ring().ResponsibleForServiceAt(dark.PermID, now)
	attack := NewSignatureAttack(dark.PermID, dirs, net.GuardPool())
	net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, attack.Observe)
	if attack.SignaturesSent() != 0 {
		t.Fatalf("signatures sent for traffic-less service: %d", attack.SignaturesSent())
	}
}
