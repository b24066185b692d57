package consensus

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"torhs/internal/onion"
	"torhs/internal/relay"
)

func at(h int) time.Time {
	return time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func newRelay(rng *rand.Rand, id int64, ip string, bw int) *relay.Relay {
	return relay.New(relay.Config{
		ID:        relay.ID(id),
		Nickname:  "r" + string(rune('A'+id%26)),
		IP:        ip,
		ORPort:    9001,
		Bandwidth: bw,
	}, rng)
}

func TestPublishExcludesDownAndUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	auth := NewAuthority(DefaultThresholds())

	up := newRelay(rng, 1, "10.0.0.1", 100)
	down := newRelay(rng, 2, "10.0.0.2", 100)
	unreach := newRelay(rng, 3, "10.0.0.3", 100)

	up.Start(at(0))
	unreach.Start(at(0))
	unreach.SetReachable(false)

	for _, r := range []*relay.Relay{up, down, unreach} {
		auth.Register(r)
	}

	doc := auth.Publish(at(1))
	if len(doc.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(doc.Entries))
	}
	if doc.Entries[0].RelayID != 1 {
		t.Fatalf("wrong relay in consensus: %d", doc.Entries[0].RelayID)
	}
}

func TestPublishTwoPerIPByBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	auth := NewAuthority(DefaultThresholds())

	// Five relays on one IP; only the two fastest should appear.
	bws := []int{50, 400, 100, 300, 200}
	for i, bw := range bws {
		r := newRelay(rng, int64(i+1), "10.0.0.1", bw)
		r.Start(at(0))
		auth.Register(r)
	}

	doc := auth.Publish(at(1))
	if len(doc.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(doc.Entries))
	}
	got := map[int]bool{}
	for _, e := range doc.Entries {
		got[e.Bandwidth] = true
	}
	if !got[400] || !got[300] {
		t.Fatalf("wrong relays selected: %+v", doc.Entries)
	}
}

func TestShadowPromotionOnUnreachability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	auth := NewAuthority(DefaultThresholds())

	fast := newRelay(rng, 1, "10.0.0.1", 400)
	mid := newRelay(rng, 2, "10.0.0.1", 300)
	shadow := newRelay(rng, 3, "10.0.0.1", 200)
	for _, r := range []*relay.Relay{fast, mid, shadow} {
		r.Start(at(0))
		auth.Register(r)
	}

	doc := auth.Publish(at(26))
	if _, ok := doc.Lookup(shadow.Fingerprint()); ok {
		t.Fatal("shadow relay in consensus before promotion")
	}

	// The attacker takes the fast relay off the air; the shadow becomes
	// active *with its accrued HSDir flag*.
	fast.SetReachable(false)
	doc = auth.Publish(at(27))
	e, ok := doc.Lookup(shadow.Fingerprint())
	if !ok {
		t.Fatal("shadow relay not promoted")
	}
	if !e.Flags.Has(FlagHSDir) {
		t.Fatalf("promoted shadow lacks HSDir flag (uptime %v)", e.Uptime)
	}
}

func TestHSDirFlagRequires25Hours(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	auth := NewAuthority(DefaultThresholds())
	r := newRelay(rng, 1, "10.0.0.1", 100)
	r.Start(at(0))
	auth.Register(r)

	if e := auth.Publish(at(24)).Entries[0]; e.Flags.Has(FlagHSDir) {
		t.Fatal("HSDir flag granted before 25h")
	}
	if e := auth.Publish(at(25)).Entries[0]; !e.Flags.Has(FlagHSDir) {
		t.Fatal("HSDir flag missing at 25h")
	}
}

func TestFingerprintSwitchResetsHSDirFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	auth := NewAuthority(DefaultThresholds())
	r := newRelay(rng, 1, "10.0.0.1", 100)
	r.Start(at(0))
	auth.Register(r)

	if e := auth.Publish(at(30)).Entries[0]; !e.Flags.Has(FlagHSDir) {
		t.Fatal("HSDir flag missing at 30h")
	}
	r.AdoptMinedFingerprint(onion.RandomFingerprint(rng), at(30))
	if e := auth.Publish(at(31)).Entries[0]; e.Flags.Has(FlagHSDir) {
		t.Fatal("HSDir flag survived identity switch")
	}
	if e := auth.Publish(at(56)).Entries[0]; !e.Flags.Has(FlagHSDir) {
		t.Fatal("HSDir flag not re-earned 26h after switch")
	}
}

func TestGuardFlagNeedsUptimeAndBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	auth := NewAuthority(DefaultThresholds())
	slow := newRelay(rng, 1, "10.0.0.1", 50)
	fast := newRelay(rng, 2, "10.0.0.2", 500)
	slow.Start(at(0))
	fast.Start(at(0))
	auth.Register(slow)
	auth.Register(fast)

	doc := auth.Publish(at(9 * 24))
	if e, _ := doc.Lookup(slow.Fingerprint()); e.Flags.Has(FlagGuard) {
		t.Fatal("slow relay got Guard flag")
	}
	if e, _ := doc.Lookup(fast.Fingerprint()); !e.Flags.Has(FlagGuard) {
		t.Fatal("fast long-lived relay missing Guard flag")
	}
}

func TestEntriesSortedByFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	auth := NewAuthority(DefaultThresholds())
	for i := 0; i < 50; i++ {
		r := newRelay(rng, int64(i), "10.0.1."+string(rune('0'+i%10))+string(rune('0'+i/10)), 100)
		r.Start(at(0))
		auth.Register(r)
	}
	doc := auth.Publish(at(1))
	for i := 1; i < len(doc.Entries); i++ {
		if !doc.Entries[i-1].Fingerprint.Less(doc.Entries[i].Fingerprint) {
			t.Fatal("entries not sorted by fingerprint")
		}
	}
}

func TestRegisterIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	auth := NewAuthority(DefaultThresholds())
	r := newRelay(rng, 1, "10.0.0.1", 100)
	r.Start(at(0))
	auth.Register(r)
	auth.Register(r)
	if doc := auth.Publish(at(1)); len(doc.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(doc.Entries))
	}
}

func TestDocumentLookupMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	doc := &Document{}
	r := newRelay(rng, 1, "10.0.0.1", 100)
	if _, ok := doc.Lookup(r.Fingerprint()); ok {
		t.Fatal("lookup in empty document succeeded")
	}
}

func TestFlagString(t *testing.T) {
	f := FlagFast | FlagGuard | FlagHSDir | FlagRunning | FlagStable
	if got, want := f.String(), "Fast Guard HSDir Running Stable"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := Flag(0).String(); got != "" {
		t.Fatalf("empty flags String() = %q, want empty", got)
	}
}

// Property: no consensus ever contains more than MaxPerIP entries for one
// IP, regardless of the relay population.
func TestQuickPerIPInvariant(t *testing.T) {
	f := func(seed int64, nRelays uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		auth := NewAuthority(DefaultThresholds())
		ips := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}
		n := int(nRelays%40) + 1
		for i := 0; i < n; i++ {
			r := newRelay(rng, int64(i), ips[rng.Intn(len(ips))], rng.Intn(500))
			if rng.Intn(4) > 0 {
				r.Start(at(0))
			}
			auth.Register(r)
		}
		doc := auth.Publish(at(rng.Intn(100)))
		perIP := map[string]int{}
		for _, e := range doc.Entries {
			perIP[e.IP]++
			if perIP[e.IP] > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
