package consensus

import (
	"fmt"
	"math/rand"
	"testing"

	"torhs/internal/relay"
)

// TestPublishForgetsStoppedRelays pins the watch-list contract: a relay
// found stopped at a Publish is forgotten, a later restart alone does
// not bring it back, and registering it again does.
func TestPublishForgetsStoppedRelays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	auth := NewAuthority(DefaultThresholds())
	keep := newRelay(rng, 1, "10.0.0.1", 100)
	gone := newRelay(rng, 2, "10.0.0.2", 100)
	for _, r := range []*relay.Relay{keep, gone} {
		r.Start(at(0))
		auth.Register(r)
	}
	listed := func(doc *Document, r *relay.Relay) bool {
		_, ok := doc.Lookup(r.Fingerprint())
		return ok
	}

	if doc := auth.Publish(at(1)); !listed(doc, gone) || len(auth.relays) != 2 {
		t.Fatalf("before the stop: listed=%v, watched %d, want true, 2", listed(doc, gone), len(auth.relays))
	}
	gone.Stop()
	if doc := auth.Publish(at(2)); listed(doc, gone) || len(auth.relays) != 1 {
		t.Fatalf("after the stop: listed=%v, watched %d, want false, 1", listed(doc, gone), len(auth.relays))
	}
	gone.Start(at(3))
	if doc := auth.Publish(at(4)); listed(doc, gone) {
		t.Fatal("a forgotten relay is listed again after a restart without a new Register")
	}
	auth.Register(gone)
	if doc := auth.Publish(at(5)); !listed(doc, gone) || !listed(doc, keep) {
		t.Fatal("a re-registered relay is not listed")
	}
}

// TestPublishProbesOnlyLiveRelays counts, at every day of a long churned
// run, the relays a Publish visits and probes. A round visits the live
// relays plus those stopped since the last round, and probes exactly the
// reachable ones, however many relays were ever registered. The run
// carries a trawl-shaped fleet: 2×steps relays per IP, one pair
// reachable, rotating daily.
func TestPublishProbesOnlyLiveRelays(t *testing.T) {
	const (
		days      = 6000
		honest    = 150
		churn     = 3
		fleetIPs  = 4
		fleetSize = 8 // 2 × steps relays per IP
	)
	rng := rand.New(rand.NewSource(9))
	auth := NewAuthority(DefaultThresholds())
	var nextID int64
	var live []*relay.Relay
	// start registers a running relay; an empty ip gives it an address
	// of its own.
	start := func(ip string, bw int) *relay.Relay {
		nextID++
		if ip == "" {
			ip = fmt.Sprintf("10.%d.%d.1", nextID/256, nextID%256)
		}
		r := newRelay(rng, nextID, ip, bw)
		r.Start(at(-48))
		auth.Register(r)
		return r
	}
	for i := 0; i < honest; i++ {
		live = append(live, start("", 100+rng.Intn(400)))
	}
	fleet := make([][]*relay.Relay, fleetIPs)
	for ip := range fleet {
		for i := 0; i < fleetSize; i++ {
			fleet[ip] = append(fleet[ip], start(fmt.Sprintf("203.0.0.%d", ip+1), 9999))
		}
	}

	for day := 0; day < days; day++ {
		for i := 0; i < churn; i++ {
			k := rng.Intn(len(live))
			live[k].Stop()
			live[k] = start("", 100+rng.Intn(400))
		}
		pair := day % (fleetSize / 2)
		for _, relays := range fleet {
			for i, r := range relays {
				r.SetReachable(i/2 == pair)
			}
		}

		visited := len(auth.relays)
		doc := auth.Publish(at(24 * day))
		probed := len(auth.probe)
		running := len(live) + fleetIPs*fleetSize
		reachable := len(live) + 2*fleetIPs
		if visited != running+churn {
			t.Fatalf("day %d: Publish visited %d relays, want %d live plus %d stopped since the last round",
				day, visited, running, churn)
		}
		if probed != reachable {
			t.Fatalf("day %d: Publish probed %d relays, want the %d reachable ones", day, probed, reachable)
		}
		if len(auth.relays) != running {
			t.Fatalf("day %d: authority watches %d relays after Publish, want %d", day, len(auth.relays), running)
		}
		if len(doc.Entries) != reachable {
			t.Fatalf("day %d: %d entries, want %d", day, len(doc.Entries), reachable)
		}
	}
	if int(nextID) < days*churn {
		t.Fatalf("only %d relays registered over the run", nextID)
	}
}
