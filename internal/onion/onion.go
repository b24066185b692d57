// Package onion implements Tor v2 hidden-service identity material:
// identity keys, onion addresses, relay fingerprints, and the rend-spec-v2
// descriptor-ID schedule that governs which hidden-service directories are
// responsible for a service at any given time.
//
// The implementation follows rend-spec.txt (version 2, the protocol in
// force in February 2013 when the paper's measurements were taken):
//
//	permanent-id   = first 10 bytes of SHA1(public-key)
//	onion address  = base32(permanent-id) + ".onion"
//	time-period    = (current-time + permanent-id-byte-0 * 86400 / 256) / 86400
//	secret-id-part = SHA1(time-period | replica)
//	descriptor-id  = SHA1(permanent-id | secret-id-part)
//
// Identity keys are modelled as opaque DER-like byte blobs rather than real
// RSA-1024 keys: every downstream computation consumes only the SHA-1
// digest of the key, which is uniformly distributed either way (see
// DESIGN.md, substitution table).
package onion

import (
	"crypto/sha1"
	"encoding/base32"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

const (
	// PermanentIDLen is the length in bytes of a hidden-service permanent
	// identifier (the truncated SHA-1 digest of the identity key).
	PermanentIDLen = 10

	// AddressLen is the length of a v2 onion address without the ".onion"
	// suffix: base32 of 10 bytes = 16 characters.
	AddressLen = 16

	// KeyLen is the length of the synthetic DER-like identity-key blob.
	// 140 bytes matches the typical DER length of an RSA-1024 public key.
	KeyLen = 140

	// Replicas is the number of descriptor replicas a hidden service
	// publishes per time period. Each replica has its own descriptor ID
	// and its own set of responsible directories.
	Replicas = 2

	// SpreadPerReplica is the number of consecutive ring positions that
	// store one replica, so Replicas*SpreadPerReplica directories are
	// responsible for a service in each time period.
	SpreadPerReplica = 3
)

var b32 = base32.StdEncoding.WithPadding(base32.NoPadding)

// IdentityKey is a hidden-service (or relay) identity public key. It is an
// opaque blob; only its SHA-1 digest matters to the protocol.
type IdentityKey []byte

// GenerateKey draws a fresh synthetic identity key from rng.
func GenerateKey(rng *rand.Rand) IdentityKey {
	k := make(IdentityKey, KeyLen)
	for i := range k {
		k[i] = byte(rng.Intn(256))
	}
	return k
}

// Digest returns the full 20-byte SHA-1 digest of the key.
func (k IdentityKey) Digest() [sha1.Size]byte { return sha1.Sum(k) }

// PermanentID is the 10-byte truncated key digest identifying a hidden
// service.
type PermanentID [PermanentIDLen]byte

// PermanentID derives the service's permanent identifier from the key.
func (k IdentityKey) PermanentID() PermanentID {
	d := k.Digest()
	var id PermanentID
	copy(id[:], d[:PermanentIDLen])
	return id
}

// Address is a v2 onion address: 16 lowercase base32 characters, without
// the ".onion" suffix.
type Address string

// AddressFromID encodes a permanent identifier as an onion address.
func AddressFromID(id PermanentID) Address {
	return Address(strings.ToLower(b32.EncodeToString(id[:])))
}

// AddressFromKey derives the onion address of the given identity key.
func AddressFromKey(k IdentityKey) Address {
	return AddressFromID(k.PermanentID())
}

// errors returned by address parsing.
var (
	ErrBadAddressLength  = errors.New("onion: address must be 16 base32 characters")
	ErrBadAddressCharset = errors.New("onion: address contains invalid base32 characters")
)

// ParseAddress validates s (with or without a ".onion" suffix, in any
// ASCII case) and returns the canonical Address and its decoded
// permanent identifier. The address itself must be exactly 16 ASCII
// base32 characters: no other rune, however it case-folds, is accepted.
func ParseAddress(s string) (Address, PermanentID, error) {
	s = strings.TrimSuffix(strings.Map(asciiLower, strings.TrimSpace(s)), ".onion")
	var id PermanentID
	if len(s) != AddressLen {
		return "", id, fmt.Errorf("%w: got %d", ErrBadAddressLength, len(s))
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < 'a' || c > 'z') && (c < '2' || c > '7') {
			return "", id, fmt.Errorf("%w: %q", ErrBadAddressCharset, s)
		}
	}
	raw, err := b32.DecodeString(strings.ToUpper(s))
	if err != nil {
		return "", id, fmt.Errorf("%w: %q", ErrBadAddressCharset, s)
	}
	copy(id[:], raw)
	return Address(s), id, nil
}

// asciiLower lowercases ASCII letters only, so that no non-ASCII rune
// (the Kelvin sign, the long s) folds into the base32 alphabet.
func asciiLower(r rune) rune {
	if 'A' <= r && r <= 'Z' {
		return r + 'a' - 'A'
	}
	return r
}

// String returns the address with the ".onion" suffix, as a user would see
// it.
func (a Address) String() string { return string(a) + ".onion" }

// VanityPermanentID constructs a permanent identifier whose onion
// address begins with the given base32 prefix, filling the remaining
// characters randomly. It models the result of vanity-address mining
// (brute-forcing keys until the address prefix matches — ~32^len tries);
// the returned identifier has no corresponding key material.
func VanityPermanentID(prefix string, rng *rand.Rand) (PermanentID, error) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz234567"
	prefix = strings.ToLower(prefix)
	if len(prefix) >= AddressLen {
		return PermanentID{}, fmt.Errorf("onion: vanity prefix %q too long", prefix)
	}
	var full strings.Builder
	full.Grow(AddressLen)
	full.WriteString(prefix)
	for full.Len() < AddressLen {
		full.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	_, id, err := ParseAddress(full.String())
	if err != nil {
		return PermanentID{}, fmt.Errorf("onion: vanity prefix %q: %w", prefix, err)
	}
	return id, nil
}

// DescriptorID is the 20-byte identifier under which one replica of a
// hidden-service descriptor is stored for one time period. Descriptor IDs
// live in the same SHA-1 space as relay fingerprints; responsible
// directories are the fingerprints that follow the descriptor ID on the
// ring.
type DescriptorID [sha1.Size]byte

// Hex returns the lowercase hex form of the descriptor ID.
func (d DescriptorID) Hex() string { return hex.EncodeToString(d[:]) }

// compare160 compares two 20-byte big-endian values word-wise: three
// 8/8/4-byte big-endian loads instead of a byte-at-a-time loop.
func compare160(a, b [sha1.Size]byte) int {
	if x, y := binary.BigEndian.Uint64(a[0:8]), binary.BigEndian.Uint64(b[0:8]); x != y {
		if x < y {
			return -1
		}
		return 1
	}
	if x, y := binary.BigEndian.Uint64(a[8:16]), binary.BigEndian.Uint64(b[8:16]); x != y {
		if x < y {
			return -1
		}
		return 1
	}
	if x, y := binary.BigEndian.Uint32(a[16:20]), binary.BigEndian.Uint32(b[16:20]); x != y {
		if x < y {
			return -1
		}
		return 1
	}
	return 0
}

// TimePeriod computes the rend-spec-v2 time-period number for a service at
// instant t. The first byte of the permanent ID staggers period rollover
// across services so the whole network does not re-upload descriptors at
// midnight simultaneously.
func TimePeriod(id PermanentID, t time.Time) uint32 {
	unix := uint64(t.Unix())
	offset := uint64(id[0]) * 86400 / 256
	return uint32((unix + offset) / 86400)
}

// ComputeDescriptorID derives the descriptor ID for one replica of a
// service in the time period containing t.
func ComputeDescriptorID(id PermanentID, t time.Time, replica uint8) DescriptorID {
	return descriptorIDForPeriod(id, TimePeriod(id, t), replica)
}

func descriptorIDForPeriod(id PermanentID, period uint32, replica uint8) DescriptorID {
	secret := secretIDPart(period, replica)
	return descriptorIDFromParts(id, &secret)
}

// secretIDPart computes SHA1(time-period | replica). It depends only on
// the period and replica — never on the service — so callers deriving IDs
// for many services over one window can share it (see SecretIDTable).
func secretIDPart(period uint32, replica uint8) [sha1.Size]byte {
	var buf [5]byte
	binary.BigEndian.PutUint32(buf[:4], period)
	buf[4] = replica
	return sha1.Sum(buf[:])
}

// descriptorIDFromParts computes SHA1(permanent-id | secret-id-part)
// over a stack buffer, so one descriptor-ID derivation performs exactly
// one SHA-1 and zero heap allocations.
func descriptorIDFromParts(id PermanentID, secret *[sha1.Size]byte) DescriptorID {
	var msg [PermanentIDLen + sha1.Size]byte
	copy(msg[:PermanentIDLen], id[:])
	copy(msg[PermanentIDLen:], secret[:])
	return DescriptorID(sha1.Sum(msg[:]))
}

// DescriptorIDForPeriod derives the descriptor ID for an explicit
// time-period number (see TimePeriod). Callers that fetch many IDs for
// one service can compute the period once and memoize per (id, period,
// replica).
func DescriptorIDForPeriod(id PermanentID, period uint32, replica uint8) DescriptorID {
	return descriptorIDForPeriod(id, period, replica)
}

// DescriptorIDForPeriod is the table-backed variant of the free function:
// periods inside the table reuse the precomputed secret part. A nil
// table derives every ID directly.
func (t *SecretIDTable) DescriptorIDForPeriod(id PermanentID, period uint32, replica uint8) DescriptorID {
	if s := t.secretFor(period); s != nil {
		return descriptorIDFromParts(id, &s[replica])
	}
	return descriptorIDForPeriod(id, period, replica)
}

// DescriptorIDs returns the descriptor IDs of all replicas of a service in
// the time period containing t, in replica order.
func DescriptorIDs(id PermanentID, t time.Time) [Replicas]DescriptorID {
	var out [Replicas]DescriptorID
	period := TimePeriod(id, t)
	for r := 0; r < Replicas; r++ {
		out[r] = descriptorIDForPeriod(id, period, uint8(r))
	}
	return out
}

// DescriptorIDsOverRange enumerates the descriptor IDs a service uses for
// every time period intersecting [from, to]. It is the building block of
// popularity resolution: client requests carry only descriptor IDs, and
// the measurement pipeline re-derives candidate IDs over a date window to
// map requests back to onion addresses (tolerating clients with wrong
// clocks, as the paper does for 28 Jan–8 Feb 2013).
func DescriptorIDsOverRange(id PermanentID, from, to time.Time) []DescriptorID {
	if to.Before(from) {
		from, to = to, from
	}
	n := int(TimePeriod(id, to)-TimePeriod(id, from)+1) * Replicas
	return DescriptorIDsOverRangeInto(make([]DescriptorID, 0, n), id, from, to)
}

// DescriptorIDsOverRangeInto is DescriptorIDsOverRange appending into
// dst, so sweeps over many services can reuse one scratch buffer instead
// of allocating a fresh slice per service. Pass dst[:0] to reuse; the
// appended-to slice is returned.
func DescriptorIDsOverRangeInto(dst []DescriptorID, id PermanentID, from, to time.Time) []DescriptorID {
	if to.Before(from) {
		from, to = to, from
	}
	first := TimePeriod(id, from)
	last := TimePeriod(id, to)
	for p := first; p <= last; p++ {
		for r := 0; r < Replicas; r++ {
			dst = append(dst, descriptorIDForPeriod(id, p, uint8(r)))
		}
	}
	return dst
}

// SecretIDTable precomputes the rend-spec secret-id-parts for every
// (time-period, replica) pair intersecting a date window. The secret part
// depends only on the period and replica — not on the service — so one
// table serves every service when deriving descriptor IDs over a shared
// window, halving the SHA-1 work of popularity resolution.
type SecretIDTable struct {
	first   uint32
	secrets [][Replicas][sha1.Size]byte
}

// NewSecretIDTable builds the table for [from, to]. The per-service
// rollover offset is under one day, so every service's periods in the
// window lie in [from's base period, to's base period + 1].
func NewSecretIDTable(from, to time.Time) *SecretIDTable {
	if to.Before(from) {
		from, to = to, from
	}
	first := uint32(uint64(from.Unix()) / 86400)
	last := uint32(uint64(to.Unix())/86400) + 1
	t := &SecretIDTable{
		first:   first,
		secrets: make([][Replicas][sha1.Size]byte, last-first+1),
	}
	for p := first; p <= last; p++ {
		for r := 0; r < Replicas; r++ {
			t.secrets[p-first][r] = secretIDPart(p, uint8(r))
		}
	}
	return t
}

// DescriptorIDsInto appends the descriptor IDs of service id for every
// time period intersecting [from, to] to dst, reusing the table's
// precomputed secret parts (periods outside the table fall back to
// direct derivation). The output is identical to
// DescriptorIDsOverRangeInto.
func (t *SecretIDTable) DescriptorIDsInto(dst []DescriptorID, id PermanentID, from, to time.Time) []DescriptorID {
	if to.Before(from) {
		from, to = to, from
	}
	first := TimePeriod(id, from)
	last := TimePeriod(id, to)
	// The permanent-id prefix of the hashed message is loop-invariant.
	var msg [PermanentIDLen + sha1.Size]byte
	copy(msg[:PermanentIDLen], id[:])
	for p := first; p <= last; p++ {
		if p < t.first || int(p-t.first) >= len(t.secrets) {
			for r := 0; r < Replicas; r++ {
				dst = append(dst, descriptorIDForPeriod(id, p, uint8(r)))
			}
			continue
		}
		secrets := &t.secrets[p-t.first]
		for r := 0; r < Replicas; r++ {
			copy(msg[PermanentIDLen:], secrets[r][:])
			dst = append(dst, DescriptorID(sha1.Sum(msg[:])))
		}
	}
	return dst
}

// Covers reports whether every time period any service may use inside
// [from, to] lies within the table, i.e. whether derivations over that
// range never fall back to direct secret-part computation.
func (t *SecretIDTable) Covers(from, to time.Time) bool {
	if to.Before(from) {
		from, to = to, from
	}
	first := uint32(uint64(from.Unix()) / 86400)
	last := uint32(uint64(to.Unix())/86400) + 1
	return first >= t.first && int(last-t.first) < len(t.secrets)
}

// secretFor returns the precomputed secret parts for the given period, or
// nil when the period lies outside the table or the table is nil.
func (t *SecretIDTable) secretFor(period uint32) *[Replicas][sha1.Size]byte {
	if t == nil || period < t.first || int(period-t.first) >= len(t.secrets) {
		return nil
	}
	return &t.secrets[period-t.first]
}

// DescriptorIDsAt returns the descriptor IDs of all replicas of service id
// in the time period containing at, in replica order. Identical output to
// DescriptorIDs, sharing the table's secret parts when possible. A nil
// table derives every ID directly.
func (t *SecretIDTable) DescriptorIDsAt(id PermanentID, at time.Time) [Replicas]DescriptorID {
	var out [Replicas]DescriptorID
	period := TimePeriod(id, at)
	if s := t.secretFor(period); s != nil {
		for r := 0; r < Replicas; r++ {
			out[r] = descriptorIDFromParts(id, &s[r])
		}
		return out
	}
	for r := 0; r < Replicas; r++ {
		out[r] = descriptorIDForPeriod(id, period, uint8(r))
	}
	return out
}

// Fingerprint is a relay identity fingerprint: the SHA-1 digest of the
// relay's identity key. Fingerprints and descriptor IDs share one ring.
type Fingerprint [sha1.Size]byte

// FingerprintFromKey derives a relay fingerprint from its identity key.
func FingerprintFromKey(k IdentityKey) Fingerprint {
	return Fingerprint(k.Digest())
}

// RandomFingerprint draws a uniform fingerprint from rng. Used by
// population generators and property tests.
func RandomFingerprint(rng *rand.Rand) Fingerprint {
	var f Fingerprint
	for i := range f {
		f[i] = byte(rng.Intn(256))
	}
	return f
}

// Hex returns the uppercase hex form, as consensus documents print it.
func (f Fingerprint) Hex() string {
	return strings.ToUpper(hex.EncodeToString(f[:]))
}

// Less reports whether f sorts before other as big-endian integers.
func (f Fingerprint) Less(other Fingerprint) bool {
	return compare160(f, other) < 0
}

// Compare returns -1, 0, or 1 comparing f with other as big-endian
// integers.
func (f Fingerprint) Compare(other Fingerprint) int {
	return compare160(f, other)
}

// Distance returns the forward ring distance from id to f interpreted as
// 160-bit big-endian integers, i.e. (f - id) mod 2^160. Tracking detection
// uses this to quantify how suspiciously close a relay positioned its
// fingerprint to a target descriptor ID.
func Distance(id DescriptorID, f Fingerprint) RingInt {
	return RingIntFromFingerprint(f).SubMod(RingIntFromDescriptorID(id))
}

// Descriptor is a v2 hidden-service descriptor: the public blob a service
// uploads to its responsible directories and clients fetch by descriptor
// ID.
type Descriptor struct {
	// DescID is the ID under which this replica is stored.
	DescID DescriptorID
	// Address is the service's onion address (derivable from PermID, kept
	// for convenience).
	Address Address
	// PermID is the service's permanent identifier.
	PermID PermanentID
	// Replica is the replica number (0-based).
	Replica uint8
	// PublishedAt is the upload instant.
	PublishedAt time.Time
	// IntroPoints lists the fingerprints of the introduction points.
	IntroPoints []Fingerprint
}
