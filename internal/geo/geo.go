// Package geo provides a synthetic IP-geolocation database. The paper's
// Fig. 3 plots the geographic locations of a Goldnet C&C's deanonymised
// clients; since real client IPs are unobtainable, clients draw addresses
// from a country-prefix table with a botnet-victim-like country mix, and
// lookups map them back.
package geo

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// CountryShare is one country's share of the client population.
type CountryShare struct {
	// Code is the ISO 3166-1 alpha-2 country code.
	Code string
	// Weight is the relative share (need not be normalised).
	Weight float64
}

// DefaultBotnetMix is a victim-country mix typical of 2012/13 botnet
// telemetry (heavy in large broadband populations).
func DefaultBotnetMix() []CountryShare {
	return []CountryShare{
		{Code: "US", Weight: 16}, {Code: "BR", Weight: 10}, {Code: "IN", Weight: 9},
		{Code: "RU", Weight: 8}, {Code: "DE", Weight: 6}, {Code: "TR", Weight: 6},
		{Code: "ID", Weight: 5}, {Code: "VN", Weight: 5}, {Code: "MX", Weight: 4},
		{Code: "IT", Weight: 4}, {Code: "FR", Weight: 4}, {Code: "GB", Weight: 3},
		{Code: "PL", Weight: 3}, {Code: "ES", Weight: 3}, {Code: "UA", Weight: 3},
		{Code: "TH", Weight: 2}, {Code: "AR", Weight: 2}, {Code: "CN", Weight: 2},
		{Code: "JP", Weight: 2}, {Code: "NL", Weight: 1}, {Code: "SE", Weight: 1},
		{Code: "CA", Weight: 1},
	}
}

// DB allocates client IPs by country and resolves them back.
type DB struct {
	shares   []CountryShare // by code; shares[i] holds the /8 firstOctet+i
	total    float64
	prefixes map[string]int // country -> first octet of its /8
}

// firstOctet is the first octet of the first country's /8.
const firstOctet = 11

// NewDB builds a database over the given country mix. Each country is
// assigned a synthetic /8, from firstOctet up, so a mix holds at most
// 256-firstOctet countries; allocation draws countries by weight.
func NewDB(shares []CountryShare) (*DB, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("geo: empty country mix")
	}
	if len(shares) > 256-firstOctet {
		return nil, fmt.Errorf("geo: %d countries, but only %d /8 prefixes", len(shares), 256-firstOctet)
	}
	db := &DB{
		shares:   make([]CountryShare, len(shares)),
		prefixes: make(map[string]int, len(shares)),
	}
	copy(db.shares, shares)
	sort.Slice(db.shares, func(i, j int) bool { return db.shares[i].Code < db.shares[j].Code })
	octet := firstOctet // start in public-ish space, one /8 per country
	for _, s := range db.shares {
		if s.Weight <= 0 {
			return nil, fmt.Errorf("geo: country %s has non-positive weight", s.Code)
		}
		if _, dup := db.prefixes[s.Code]; dup {
			return nil, fmt.Errorf("geo: duplicate country %s", s.Code)
		}
		db.prefixes[s.Code] = octet
		db.total += s.Weight
		octet++
	}
	return db, nil
}

// AllocateIP draws a client IP: a country sampled by weight, an address
// within its /8.
func (db *DB) AllocateIP(rng *rand.Rand) (ip, country string) {
	country, octets := db.DrawIP(rng)
	return FormatIP(octets), country
}

// FormatIP returns the dotted-quad form of an address's octets: the
// string fmt.Sprintf("%d.%d.%d.%d", ...) would build, without its cost.
func FormatIP(octets [4]byte) string {
	var buf [len("255.255.255.255")]byte
	b := strconv.AppendInt(buf[:0], int64(octets[0]), 10)
	for _, o := range octets[1:] {
		b = strconv.AppendInt(append(b, '.'), int64(o), 10)
	}
	return string(b)
}

// DrawIP makes AllocateIP's draws and returns them unformatted: the
// country, then the address's octets, drawn in address order. A caller
// that needs only to keep a shared RNG in step with AllocateIP calls
// this and formats nothing.
func (db *DB) DrawIP(rng *rand.Rand) (country string, octets [4]byte) {
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
	return country, [4]byte{byte(db.prefixes[country]), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}
}

// Lookup resolves an IP to its country code.
func (db *DB) Lookup(ip string) (string, error) {
	dot := strings.IndexByte(ip, '.')
	if dot <= 0 || dot > 3 { // a longer first octet could overflow into range
		return "", fmt.Errorf("geo: malformed IP %q", ip)
	}
	var o1 int
	for _, c := range ip[:dot] {
		if c < '0' || c > '9' {
			return "", fmt.Errorf("geo: malformed IP %q", ip)
		}
		o1 = o1*10 + int(c-'0')
	}
	if i := o1 - firstOctet; i >= 0 && i < len(db.shares) {
		return db.shares[i].Code, nil
	}
	return "", fmt.Errorf("geo: IP %q outside allocated space", ip)
}
