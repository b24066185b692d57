package trawl

import (
	"context"
	"reflect"
	"testing"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
	"torhs/internal/simnet"
)

// TestStepReadoutSameOnRestrictedNetwork pins the trawl's use of
// simnet.Config.Observed: one step read out from a network restricted to
// the attacker directories equals the read-out from a full-ring network,
// and the restricted network's log counts exactly the fetch events the
// full-ring network's attacker directories answered (an event's Dir
// answered it).
func TestStepReadoutSameOnRestrictedNetwork(t *testing.T) {
	tr, sim, pop, db, start := setupTrawl(t, 61, 1, true)
	tr.cfg.Workers = 2
	tr.rotate(0)
	doc := sim.Authority().Publish(start)
	attacker := tr.attackerDirs(doc.HSDirs())
	if len(attacker) == 0 {
		t.Fatal("no attacker directories on the ring")
	}
	// The full-ring network's observer counts what the attacker
	// directories answered into a plain log.
	oracle := hsdir.NewRequestLog()
	readout := func(observed []onion.Fingerprint) (*Harvest, map[onion.DescriptorID]bool, map[onion.DescriptorID]bool) {
		net, err := simnet.NewNetwork(doc, db, tr.stepConfig(0, observed))
		if err != nil {
			t.Fatal(err)
		}
		net.PublishAll(pop, start)
		var observer func(simnet.FetchEvent)
		if observed == nil {
			observer = func(ev simnet.FetchEvent) {
				if tr.allFPs[ev.Dir] {
					oracle.RecordEach([][]hsdir.Answer{{{ID: ev.DescID, Found: ev.Found}}})
				}
			}
		}
		if _, err := net.DriveWindow(context.Background(), pop, start, StepLen, observer); err != nil {
			t.Fatal(err)
		}
		h := &Harvest{
			Addresses: make(map[onion.Address]bool),
			PermIDs:   make(map[onion.Address]onion.PermanentID),
			Log:       hsdir.NewRequestLog(),
		}
		pub, req := make(map[onion.DescriptorID]bool), make(map[onion.DescriptorID]bool)
		tr.mergeReadouts(h, pub, req, tr.readStep(net, attacker))
		h.Log.MergeAll([]*hsdir.RequestLog{net.Log()})
		return h, pub, req
	}
	full, fullPub, fullReq := readout(nil)
	got, pub, req := readout(attacker)
	if oracle.Total() == 0 || len(full.Addresses) == 0 {
		t.Fatal("empty reference read-out")
	}
	if full.Log.Total() != 0 {
		t.Fatalf("full-ring network logged %d requests, want none", full.Log.Total())
	}
	if got.DescriptorsSeen != full.DescriptorsSeen ||
		!reflect.DeepEqual(got.Addresses, full.Addresses) ||
		!reflect.DeepEqual(got.PermIDs, full.PermIDs) ||
		!reflect.DeepEqual(pub, fullPub) || !reflect.DeepEqual(req, fullReq) {
		t.Fatal("restricted read-out differs from the full-ring read-out")
	}
	gc, gt, gf := got.Log.CompactState()
	oc, ot, of := oracle.CompactState()
	if !reflect.DeepEqual(gc, oc) || gt != ot || gf != of {
		t.Fatalf("merged log differs from the oracle: total %d vs %d, found %d vs %d", gt, ot, gf, of)
	}
}
