package relaynet

import (
	"testing"
	"time"

	"torhs/internal/consensus"
)

func TestNewSimRejectsBadConfig(t *testing.T) {
	cfg := DefaultFleetConfig(1)
	cfg.Days = 0
	if _, err := NewSim(cfg); err == nil {
		t.Fatal("days=0 accepted")
	}
	cfg = DefaultFleetConfig(1)
	cfg.FinalRelays = cfg.InitialRelays - 10
	if _, err := NewSim(cfg); err == nil {
		t.Fatal("shrinking bounds accepted")
	}
	cfg = DefaultFleetConfig(1)
	cfg.DailyChurn = 1.5
	if _, err := NewSim(cfg); err == nil {
		t.Fatal("churn 1.5 accepted")
	}
}

func TestRunProducesDailyHistory(t *testing.T) {
	cfg := DefaultFleetConfig(2)
	cfg.Days = 5
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 5 {
		t.Fatalf("history length = %d, want 5", h.Len())
	}
	docs := h.All()
	for i, doc := range docs {
		want := cfg.Start.Add(time.Duration(i) * 24 * time.Hour)
		if !doc.ValidAfter.Equal(want) {
			t.Fatalf("doc %d valid-after = %v, want %v", i, doc.ValidAfter, want)
		}
	}
}

func TestFirstConsensusHasFlagMix(t *testing.T) {
	cfg := DefaultFleetConfig(3)
	cfg.Days = 1
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := h.All()[0]
	if len(doc.HSDirs()) < 50 {
		t.Fatalf("HSDirs on day 0 = %d, want a realistic mix", len(doc.HSDirs()))
	}
	if len(doc.Guards()) < 10 {
		t.Fatalf("Guards on day 0 = %d, want a realistic mix", len(doc.Guards()))
	}
}

func TestNetworkGrowth(t *testing.T) {
	cfg := DefaultFleetConfig(4)
	cfg.Days = 8
	cfg.InitialRelays = 200
	cfg.FinalRelays = 400
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := h.All()
	first := len(docs[0].Entries)
	last := len(docs[len(docs)-1].Entries)
	if last <= first {
		t.Fatalf("no growth: %d -> %d entries", first, last)
	}
	if last < 350 {
		t.Fatalf("final consensus %d entries, want near 400", last)
	}
}

func TestChurnIntroducesNewFingerprints(t *testing.T) {
	cfg := DefaultFleetConfig(5)
	cfg.Days = 6
	cfg.DailyChurn = 0.05
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := h.All()
	firstSet := map[string]bool{}
	for _, e := range docs[0].Entries {
		firstSet[e.Fingerprint.Hex()] = true
	}
	fresh := 0
	for _, e := range docs[len(docs)-1].Entries {
		if !firstSet[e.Fingerprint.Hex()] {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("no new fingerprints after churn")
	}
}

func TestDayHookRunsEveryDay(t *testing.T) {
	cfg := DefaultFleetConfig(6)
	cfg.Days = 4
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var days []int
	_, err = sim.Run(func(day int, now time.Time) {
		days = append(days, day)
		if !now.Equal(cfg.Start.Add(time.Duration(day) * 24 * time.Hour)) {
			t.Errorf("hook day %d wrong instant %v", day, now)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 4 {
		t.Fatalf("hook ran %d times, want 4", len(days))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []int {
		cfg := DefaultFleetConfig(7)
		cfg.Days = 3
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sim.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for _, d := range h.All() {
			sizes = append(sizes, len(d.Entries), len(d.HSDirs()))
		}
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestConsensusRespectsPerIPCap(t *testing.T) {
	cfg := DefaultFleetConfig(8)
	cfg.Days = 2
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	th := consensus.DefaultThresholds()
	for _, doc := range h.All() {
		perIP := map[string]int{}
		for _, e := range doc.Entries {
			perIP[e.IP]++
			if perIP[e.IP] > th.MaxPerIP {
				t.Fatalf("IP %s has %d consensus entries", e.IP, perIP[e.IP])
			}
		}
	}
}

// TestSimHoldsOnlyRunningRelays checks, at every day of a long churned
// run, that the sim's relay list is exactly as long as the day's growth
// target and holds only running relays, in creation order.
func TestSimHoldsOnlyRunningRelays(t *testing.T) {
	cfg := DefaultFleetConfig(8)
	cfg.Days = 3000
	cfg.InitialRelays, cfg.FinalRelays = 100, 160
	cfg.DailyChurn = 0.05
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < cfg.Days; day++ {
		if _, err := sim.StepDay(nil); err != nil {
			t.Fatal(err)
		}
		target := cfg.InitialRelays + (cfg.FinalRelays-cfg.InitialRelays)*day/(cfg.Days-1)
		if len(sim.relays) != target {
			t.Fatalf("day %d: sim holds %d relays, want %d", day, len(sim.relays), target)
		}
		for i, r := range sim.relays {
			if running, _ := r.State(); !running {
				t.Fatalf("day %d: stopped relay %v still held", day, r)
			}
			if i > 0 && r.ID() <= sim.relays[i-1].ID() {
				t.Fatalf("day %d: relays out of creation order at %d", day, i)
			}
		}
	}
	if int(sim.nextID) < cfg.Days*5 {
		t.Fatalf("only %d relays started over the run", sim.nextID)
	}
}
