package trawl

import (
	"testing"
	"time"

	"torhs/internal/relay"
	"torhs/internal/relaynet"
)

// deployedFleet deploys a small fleet on a fresh sim.
func deployedFleet(t *testing.T, ips, steps int) *Trawler {
	t.Helper()
	fleet := relaynet.DefaultFleetConfig(3)
	fleet.Days = 1
	fleet.InitialRelays, fleet.FinalRelays = 50, 50
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.IPs, cfg.Steps = ips, steps
	tr, err := NewTrawler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Deploy(sim, fleet.Start.Add(48*time.Hour))
	return tr
}

// TestRotateMatchesFullRotation checks the incremental rotate against the
// full one it replaces: after every rotate, exactly the step's pair is
// reachable on every IP. Each case resumes at a step k on a freshly
// deployed fleet (Deploy's pair 0 still reachable), runs to the end, and
// then runs the whole window again.
func TestRotateMatchesFullRotation(t *testing.T) {
	const ips, steps = 5, 6
	for k := 0; k < steps; k++ {
		tr := deployedFleet(t, ips, steps)
		check := func(step int) {
			t.Helper()
			for ip, relays := range tr.fleet {
				for i, r := range relays {
					if running, reachable := r.State(); !running || reachable != (i/2 == step) {
						t.Fatalf("resume at %d, step %d: IP %d relay %d running=%v reachable=%v",
							k, step, ip, i, running, reachable)
					}
				}
			}
		}
		check(0)
		order := []int{}
		for step := k; step < steps; step++ {
			order = append(order, step)
		}
		for step := 0; step < steps; step++ {
			order = append(order, step)
		}
		for _, step := range order {
			tr.rotate(step)
			check(step)
		}
	}
}

// TestRotateTouchesTwoPairsPerIP counts the relays a rotate touches: it
// rotates a fleet in which every relay but the outgoing and the incoming
// pair is nil, so touching any other relay panics. Every (outgoing,
// incoming) pair of steps is covered, the run's order and every resume
// included.
func TestRotateTouchesTwoPairsPerIP(t *testing.T) {
	const ips, steps = 3, 5
	tr := deployedFleet(t, ips, steps)
	for from := 0; from < steps; from++ {
		for to := 0; to < steps; to++ {
			sparse := &Trawler{cfg: tr.cfg, active: from, fleet: make([][]*relay.Relay, ips)}
			for ip, relays := range tr.fleet {
				sparse.fleet[ip] = make([]*relay.Relay, len(relays))
				for _, pair := range []int{from, to} {
					copy(sparse.fleet[ip][2*pair:2*pair+2], relays[2*pair:2*pair+2])
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("rotate %d -> %d touched a relay outside both pairs: %v", from, to, r)
					}
				}()
				sparse.rotate(to)
			}()
			if sparse.active != to {
				t.Fatalf("rotate %d -> %d left pair %d active", from, to, sparse.active)
			}
		}
	}
}
