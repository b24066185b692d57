package geo

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestNewDBRejectsBadInput(t *testing.T) {
	if _, err := NewDB(nil); err == nil {
		t.Fatal("empty mix accepted")
	}
	if _, err := NewDB([]CountryShare{{Code: "US", Weight: 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := NewDB([]CountryShare{{Code: "US", Weight: 1}, {Code: "US", Weight: 2}}); err == nil {
		t.Fatal("duplicate country accepted")
	}
	many := make([]CountryShare, 256-firstOctet+1)
	for i := range many {
		many[i] = CountryShare{Code: fmt.Sprintf("C%d", i), Weight: 1}
	}
	if _, err := NewDB(many[1:]); err != nil {
		t.Fatalf("a country per /8 refused: %v", err)
	}
	if _, err := NewDB(many); err == nil {
		t.Fatal("more countries than /8 prefixes accepted")
	}
}

func TestAllocateLookupRoundTrip(t *testing.T) {
	db, err := NewDB(DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ip, country := db.AllocateIP(rng)
		got, err := db.Lookup(ip)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", ip, err)
		}
		if got != country {
			t.Fatalf("Lookup(%s) = %s, want %s", ip, got, country)
		}
	}
}

func TestAllocationFollowsWeights(t *testing.T) {
	db, err := NewDB([]CountryShare{{Code: "AA", Weight: 9}, {Code: "BB", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		_, c := db.AllocateIP(rng)
		counts[c]++
	}
	frac := float64(counts["AA"]) / 5000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("AA share = %.3f, want ~0.9", frac)
	}
}

func TestLookupErrors(t *testing.T) {
	db, err := NewDB(DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	for _, ip := range []string{"", "notanip", "999.1.1.1", ".1.2.3", "5.1.1.1"} {
		if _, err := db.Lookup(ip); err == nil {
			t.Fatalf("Lookup(%q) succeeded, want error", ip)
		}
	}
}

func TestCountriesSortedAndComplete(t *testing.T) {
	mix := DefaultBotnetMix()
	db, err := NewDB(mix)
	if err != nil {
		t.Fatal(err)
	}
	// AllocateIP draws a country by walking the shares in order, so the
	// order is part of every drawn address.
	got := db.shares
	if len(got) != len(mix) {
		t.Fatalf("countries = %d, want %d", len(got), len(mix))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Code >= got[i].Code {
			t.Fatal("countries not sorted")
		}
	}
}

// sprintfAllocateIP is AllocateIP written the obvious way, with
// fmt.Sprintf: the oracle for its strconv form.
func sprintfAllocateIP(db *DB, rng *rand.Rand) (ip, country string) {
	r := rng.Float64() * db.total
	acc := 0.0
	country = db.shares[len(db.shares)-1].Code
	for _, s := range db.shares {
		acc += s.Weight
		if r < acc {
			country = s.Code
			break
		}
	}
	return fmt.Sprintf("%d.%d.%d.%d", db.prefixes[country], rng.Intn(256), rng.Intn(256), 1+rng.Intn(254)), country
}

// TestAllocateIPMatchesSprintf pins AllocateIP against the fmt oracle
// over 10^5 draws: the same address and country every time, and the RNG
// left in the same state.
func TestAllocateIPMatchesSprintf(t *testing.T) {
	db, err := NewDB(DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 100_000; i++ {
		ip, country := db.AllocateIP(a)
		wantIP, wantCountry := sprintfAllocateIP(db, b)
		if ip != wantIP || country != wantCountry {
			t.Fatalf("draw %d: %s in %s, oracle %s in %s", i, ip, country, wantIP, wantCountry)
		}
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatal("AllocateIP left the RNG in a different state than the oracle")
	}
}
