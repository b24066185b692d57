package tracking

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/race"
	"torhs/internal/relay"
	"torhs/internal/relaynet"
)

// scanSim is the reference relay simulation: it keeps every relay it
// ever started, counts and draws the live ones by scanning them all, and
// publishes through scanAuthority. Its draws are relaynet.Sim's, so for
// one FleetConfig and one hook the two must publish the same documents.
type scanSim struct {
	cfg    relaynet.FleetConfig
	rng    *rand.Rand
	auth   *scanAuthority
	relays []*relay.Relay
	nextID relay.ID
	day    int
}

func newScanSim(cfg relaynet.FleetConfig) *scanSim {
	s := &scanSim{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		auth: &scanAuthority{th: cfg.Thresholds},
	}
	for i := 0; i < cfg.InitialRelays; i++ {
		age := time.Duration(2+s.rng.Intn(100*24)) * time.Hour
		s.addRelay(cfg.Start.Add(-age))
	}
	return s
}

func (s *scanSim) addRelay(startAt time.Time) {
	id := s.nextID
	s.nextID++
	r := relay.New(relay.Config{
		ID:        id,
		Nickname:  fmt.Sprintf("relay%05d", id),
		IP:        s.randomIP(),
		ORPort:    9001,
		Bandwidth: s.randomBandwidth(),
	}, s.rng)
	r.Start(startAt)
	s.relays = append(s.relays, r)
	s.auth.relays = append(s.auth.relays, r)
}

func (s *scanSim) randomIP() string {
	return fmt.Sprintf("%d.%d.%d.%d",
		20+s.rng.Intn(200), s.rng.Intn(256), s.rng.Intn(256), 1+s.rng.Intn(254))
}

func (s *scanSim) randomBandwidth() int {
	base := 50 + s.rng.Intn(300)
	if s.rng.Float64() < 0.2 {
		base += s.rng.Intn(5000)
	}
	return base
}

func (s *scanSim) RNG() *rand.Rand { return s.rng }

func (s *scanSim) NewRelayID() relay.ID {
	id := s.nextID
	s.nextID++
	return id
}

func (s *scanSim) AddAttackerRelay(r *relay.Relay) { s.auth.relays = append(s.auth.relays, r) }

func (s *scanSim) StepDay(hook relaynet.DayHook) *consensus.Document {
	cfg := s.cfg
	day := s.day
	now := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
	target := cfg.InitialRelays
	if cfg.Days > 1 {
		target += (cfg.FinalRelays - cfg.InitialRelays) * day / (cfg.Days - 1)
	}
	for s.liveCount() < target {
		s.addRelay(now.Add(-time.Duration(s.rng.Intn(48)) * time.Hour))
	}
	nChurn := int(float64(s.liveCount()) * cfg.DailyChurn)
	for i := 0; i < nChurn; i++ {
		s.stopRandomLive()
		s.addRelay(now.Add(-time.Duration(s.rng.Intn(12)) * time.Hour))
	}
	if hook != nil {
		hook(day, now)
	}
	s.day++
	return s.auth.publish(now)
}

func (s *scanSim) liveCount() int {
	n := 0
	for _, r := range s.relays {
		if running, _ := r.State(); running {
			n++
		}
	}
	return n
}

func (s *scanSim) stopRandomLive() {
	live := make([]int, 0, len(s.relays))
	for i, r := range s.relays {
		if running, _ := r.State(); running {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return
	}
	s.relays[live[s.rng.Intn(len(live))]].Stop()
}

// scanAuthority is the reference directory authority: it probes every
// relay ever registered and groups the reachable ones per IP through a
// map.
type scanAuthority struct {
	th     consensus.Thresholds
	relays []*relay.Relay
}

func (a *scanAuthority) flagsFor(s relay.Status) consensus.Flag {
	f := consensus.FlagRunning
	if s.Bandwidth >= a.th.FastBandwidth {
		f |= consensus.FlagFast
	}
	if s.Uptime >= a.th.StableUptime {
		f |= consensus.FlagStable
	}
	if s.Uptime >= a.th.GuardUptime && s.Bandwidth >= a.th.GuardBandwidth {
		f |= consensus.FlagGuard
	}
	if s.Uptime >= a.th.HSDirUptime {
		f |= consensus.FlagHSDir
	}
	return f
}

func (a *scanAuthority) publish(now time.Time) *consensus.Document {
	statuses := make([]relay.Status, 0, len(a.relays))
	for _, r := range a.relays {
		s := r.StatusAt(now)
		if s.Running && s.Reachable {
			statuses = append(statuses, s)
		}
	}
	byIP := make(map[string][]relay.Status, len(statuses))
	for _, s := range statuses {
		byIP[s.IP] = append(byIP[s.IP], s)
	}
	doc := &consensus.Document{ValidAfter: now}
	for _, group := range byIP {
		sort.Slice(group, func(i, j int) bool {
			if group[i].Bandwidth != group[j].Bandwidth {
				return group[i].Bandwidth > group[j].Bandwidth
			}
			return group[i].Fingerprint.Less(group[j].Fingerprint)
		})
		n := min(a.th.MaxPerIP, len(group))
		for _, s := range group[:n] {
			doc.Entries = append(doc.Entries, consensus.Entry{
				Fingerprint: s.Fingerprint,
				RelayID:     s.ID,
				Nickname:    s.Nickname,
				IP:          s.IP,
				ORPort:      s.ORPort,
				Bandwidth:   s.Bandwidth,
				Flags:       a.flagsFor(s),
				Uptime:      s.Uptime,
			})
		}
	}
	sort.Slice(doc.Entries, func(i, j int) bool {
		return doc.Entries[i].Fingerprint.Less(doc.Entries[j].Fingerprint)
	})
	return doc
}

// plantShadowFleet registers a trawl-shaped fleet with host: per IP,
// 2×steps relays, of one bandwidth on even IPs (as a trawl fleet) and of
// three on odd ones. Its hook keeps one pair per IP reachable, rotating
// daily, and on odd days a second pair too, so the per-IP cut ranks four
// candidates by bandwidth and fingerprint.
func plantShadowFleet(host relayHost, start time.Time) relaynet.DayHook {
	const ips, steps = 4, 4
	fleet := make([][]*relay.Relay, ips)
	for ip := range fleet {
		for i := 0; i < 2*steps; i++ {
			r := relay.New(relay.Config{
				ID:        host.NewRelayID(),
				Nickname:  fmt.Sprintf("shadow%d-%d", ip, i),
				IP:        fmt.Sprintf("203.0.113.%d", ip+1),
				ORPort:    9001 + i,
				Bandwidth: 5000 + 100*(i%3)*(ip%2),
			}, host.RNG())
			r.Start(start.Add(-30 * time.Hour))
			host.AddAttackerRelay(r)
			fleet[ip] = append(fleet[ip], r)
		}
	}
	return func(day int, _ time.Time) {
		pair := day % steps
		for _, relays := range fleet {
			for i, r := range relays {
				r.SetReachable(i/2 == pair || (day%2 == 1 && i/2 == (pair+1)%steps))
			}
		}
	}
}

// TestScenarioMatchesScanningOracle steps the live-relay simulation and
// the scanning one side by side over 2,000 days, with the planted
// trackers and a rotating shadow fleet, and requires every day's
// document to be the same byte for byte, at three seeds and two churn
// rates.
func TestScenarioMatchesScanningOracle(t *testing.T) {
	const days = 2000
	seeds := []int64{1, 2, 3}
	if race.Enabled {
		// Each replay is sequential, so more seeds give the race
		// detector nothing new; one keeps the -race run short.
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, churn := range []float64{0.01, 0.03} {
			t.Run(fmt.Sprintf("seed=%d/churn=%v", seed, churn), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultScenarioConfig(seed)
				cfg.Days = days
				cfg.InitialRelays, cfg.FinalRelays = 80, 150
				cfg.OwnProbeDays = []int{20, 900, 1700}
				cfg.BandStart, cfg.BandEnd = 1000, 1030
				cfg.TakeoverDay = 1900
				fleet := scenarioFleet(cfg)
				fleet.DailyChurn = churn

				sim, err := relaynet.NewSim(fleet)
				if err != nil {
					t.Fatal(err)
				}
				oracle := newScanSim(fleet)
				hooks := func(host relayHost) relaynet.DayHook {
					_, trackers := plantTrackers(cfg, fleet.Start, host)
					shadows := plantShadowFleet(host, fleet.Start)
					return func(day int, now time.Time) {
						trackers(day, now)
						shadows(day, now)
					}
				}
				simHook, oracleHook := hooks(sim), hooks(oracle)

				for day := 0; day < days; day++ {
					got, err := sim.StepDay(simHook)
					if err != nil {
						t.Fatal(err)
					}
					want := oracle.StepDay(oracleHook)
					gotText, _ := got.MarshalText()
					wantText, _ := want.MarshalText()
					if !bytes.Equal(gotText, wantText) || !reflect.DeepEqual(got.Entries, want.Entries) {
						t.Fatalf("day %d: document diverged from the scanning oracle (%d vs %d entries)",
							day, len(got.Entries), len(want.Entries))
					}
				}
				if n := len(oracle.relays); n < fleet.InitialRelays+days*int(churn*float64(fleet.InitialRelays)) {
					t.Fatalf("oracle started only %d relays", n)
				}
			})
		}
	}
}
