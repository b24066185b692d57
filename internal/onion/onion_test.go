package onion

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestGenerateKeyLength(t *testing.T) {
	k := GenerateKey(testRand())
	if len(k) != KeyLen {
		t.Fatalf("key length = %d, want %d", len(k), KeyLen)
	}
}

func TestAddressIs16Base32Chars(t *testing.T) {
	rng := testRand()
	for i := 0; i < 100; i++ {
		addr := AddressFromKey(GenerateKey(rng))
		if len(addr) != AddressLen {
			t.Fatalf("address %q length = %d, want %d", addr, len(addr), AddressLen)
		}
		for _, c := range addr {
			if !strings.ContainsRune("abcdefghijklmnopqrstuvwxyz234567", c) {
				t.Fatalf("address %q contains non-base32 rune %q", addr, c)
			}
		}
	}
}

func TestAddressStringHasOnionSuffix(t *testing.T) {
	addr := AddressFromKey(GenerateKey(testRand()))
	if !strings.HasSuffix(addr.String(), ".onion") {
		t.Fatalf("String() = %q, want .onion suffix", addr.String())
	}
}

func TestParseAddressRoundTrip(t *testing.T) {
	rng := testRand()
	for i := 0; i < 50; i++ {
		k := GenerateKey(rng)
		id := k.PermanentID()
		addr := AddressFromID(id)

		got, gotID, err := ParseAddress(addr.String())
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", addr.String(), err)
		}
		if got != addr {
			t.Fatalf("ParseAddress returned %q, want %q", got, addr)
		}
		if gotID != id {
			t.Fatalf("ParseAddress ID mismatch for %q", addr)
		}
	}
}

func TestParseAddressRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "abcdef"},
		{"long", "abcdefghijklmnopq"},
		{"bad charset digit 1", "1bcdefghijklmnop"},
		{"bad charset digit 0", "0bcdefghijklmnop"},
		{"bad charset punct", "abcdefghijklmno!"},
		// 16 bytes; ToUpper maps the long s to 'S'.
		{"long s", "aaaaaaaaaaaaaa\u017f"},
		// ToLower maps the Kelvin sign to 'k'.
		{"kelvin sign", "aaaaaaaaaaaaaaa\u212a"},
		{"kelvin sign with suffix", "aaaaaaaaaaaaaaa\u212a.onion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ParseAddress(tc.in); err == nil {
				t.Fatalf("ParseAddress(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestParseAddressAcceptsUppercaseAndSuffix(t *testing.T) {
	k := GenerateKey(testRand())
	addr := AddressFromKey(k)
	for _, in := range []string{
		strings.ToUpper(string(addr)) + ".onion",
		strings.ToUpper(addr.String()),
		string(addr) + ".OnIoN",
	} {
		got, _, err := ParseAddress(in)
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", in, err)
		}
		if got != addr {
			t.Fatalf("ParseAddress(%q) = %q, want %q", in, got, addr)
		}
	}
}

func TestTimePeriodOffsetStaggersRollover(t *testing.T) {
	// Two IDs differing in the first byte must roll over at different
	// instants. id0 rolls over exactly at midnight; idFF rolls over
	// 255*86400/256 seconds earlier.
	var id0, idFF PermanentID
	idFF[0] = 0xFF

	midnight := time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC)
	justBefore := midnight.Add(-time.Second)

	if TimePeriod(id0, justBefore) == TimePeriod(id0, midnight) {
		t.Fatal("id0 period did not roll over at midnight")
	}
	if TimePeriod(idFF, justBefore) != TimePeriod(idFF, midnight) {
		t.Fatal("idFF period rolled over at midnight, want earlier rollover")
	}
}

func TestComputeDescriptorIDStableWithinPeriod(t *testing.T) {
	k := GenerateKey(testRand())
	id := k.PermanentID()
	base := time.Date(2013, 2, 4, 1, 0, 0, 0, time.UTC)

	d1 := ComputeDescriptorID(id, base, 0)
	d2 := ComputeDescriptorID(id, base.Add(time.Hour), 0)
	if d1 != d2 {
		// The offset may have pushed the second instant into the next
		// period; only fail if the periods match.
		if TimePeriod(id, base) == TimePeriod(id, base.Add(time.Hour)) {
			t.Fatal("descriptor ID changed within one time period")
		}
	}
}

func TestComputeDescriptorIDChangesAcrossPeriods(t *testing.T) {
	k := GenerateKey(testRand())
	id := k.PermanentID()
	base := time.Date(2013, 2, 4, 1, 0, 0, 0, time.UTC)

	d1 := ComputeDescriptorID(id, base, 0)
	d2 := ComputeDescriptorID(id, base.Add(48*time.Hour), 0)
	if d1 == d2 {
		t.Fatal("descriptor ID identical across distinct time periods")
	}
}

func TestReplicasHaveDistinctDescriptorIDs(t *testing.T) {
	k := GenerateKey(testRand())
	ids := DescriptorIDs(k.PermanentID(), time.Date(2013, 2, 4, 12, 0, 0, 0, time.UTC))
	if ids[0] == ids[1] {
		t.Fatal("replica descriptor IDs are identical")
	}
}

func TestDescriptorIDsOverRangeCoversBothReplicas(t *testing.T) {
	k := GenerateKey(testRand())
	id := k.PermanentID()
	from := time.Date(2013, 1, 28, 0, 0, 0, 0, time.UTC)
	to := time.Date(2013, 2, 8, 0, 0, 0, 0, time.UTC)

	ids := DescriptorIDsOverRange(id, from, to)
	periods := int(TimePeriod(id, to)-TimePeriod(id, from)) + 1
	if want := periods * Replicas; len(ids) != want {
		t.Fatalf("got %d descriptor IDs, want %d", len(ids), want)
	}

	seen := make(map[DescriptorID]bool, len(ids))
	for _, d := range ids {
		if seen[d] {
			t.Fatalf("duplicate descriptor ID %s in range enumeration", d.Hex())
		}
		seen[d] = true
	}

	// The per-instant IDs must be contained in the range enumeration.
	for _, d := range DescriptorIDs(id, from.Add(36*time.Hour)) {
		if !seen[d] {
			t.Fatalf("descriptor ID %s for mid-range instant missing", d.Hex())
		}
	}
}

func TestDescriptorIDsOverRangeSwappedBounds(t *testing.T) {
	k := GenerateKey(testRand())
	id := k.PermanentID()
	from := time.Date(2013, 1, 28, 0, 0, 0, 0, time.UTC)
	to := time.Date(2013, 2, 8, 0, 0, 0, 0, time.UTC)

	a := DescriptorIDsOverRange(id, from, to)
	b := DescriptorIDsOverRange(id, to, from)
	if len(a) != len(b) {
		t.Fatalf("swapped bounds changed result size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("swapped bounds changed enumeration")
		}
	}
}

func TestFingerprintCompareConsistentWithLess(t *testing.T) {
	rng := testRand()
	for i := 0; i < 200; i++ {
		a := RandomFingerprint(rng)
		b := RandomFingerprint(rng)
		switch a.Compare(b) {
		case -1:
			if !a.Less(b) || b.Less(a) {
				t.Fatal("Compare=-1 inconsistent with Less")
			}
		case 1:
			if a.Less(b) || !b.Less(a) {
				t.Fatal("Compare=1 inconsistent with Less")
			}
		case 0:
			if a.Less(b) || b.Less(a) {
				t.Fatal("Compare=0 inconsistent with Less")
			}
		}
	}
}

func TestFingerprintHexIs40Chars(t *testing.T) {
	f := RandomFingerprint(testRand())
	if len(f.Hex()) != 40 {
		t.Fatalf("Hex length = %d, want 40", len(f.Hex()))
	}
	if f.Hex() != strings.ToUpper(f.Hex()) {
		t.Fatal("Hex is not uppercase")
	}
}

// Property: descriptor IDs are deterministic functions of (permID, period,
// replica) — recomputation is identical.
func TestQuickDescriptorIDDeterministic(t *testing.T) {
	f := func(seed int64, hourOffset uint16, replica bool) bool {
		rng := rand.New(rand.NewSource(seed))
		id := GenerateKey(rng).PermanentID()
		at := time.Unix(1359936000+int64(hourOffset)*3600, 0) // around Feb 2013
		r := uint8(0)
		if replica {
			r = 1
		}
		return ComputeDescriptorID(id, at, r) == ComputeDescriptorID(id, at, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVanityPermanentID(t *testing.T) {
	rng := testRand()
	id, err := VanityPermanentID("silkroa", rng)
	if err != nil {
		t.Fatal(err)
	}
	addr := AddressFromID(id)
	if !strings.HasPrefix(string(addr), "silkroa") {
		t.Fatalf("vanity address %q lacks prefix", addr)
	}
	// Distinct calls yield distinct suffixes.
	id2, err := VanityPermanentID("silkroa", rng)
	if err != nil {
		t.Fatal(err)
	}
	if id == id2 {
		t.Fatal("vanity IDs collide")
	}
}

func TestVanityPermanentIDRejectsBadPrefix(t *testing.T) {
	rng := testRand()
	if _, err := VanityPermanentID("abcdefghijklmnop", rng); err == nil {
		t.Fatal("full-length prefix accepted")
	}
	if _, err := VanityPermanentID("bad!prefix", rng); err == nil {
		t.Fatal("invalid charset accepted")
	}
}

// Property: distinct keys yield distinct addresses (no collisions at test
// scale).
func TestQuickAddressInjective(t *testing.T) {
	rng := testRand()
	seen := make(map[Address]bool, 5000)
	for i := 0; i < 5000; i++ {
		addr := AddressFromKey(GenerateKey(rng))
		if seen[addr] {
			t.Fatalf("address collision after %d keys", i)
		}
		seen[addr] = true
	}
}

// TestSecretIDTableDerivationsMatchDirect pins the table-backed
// descriptor-ID derivations (inside and outside the table's window, where
// they fall back to direct computation, and on a nil table, which always
// does) to ComputeDescriptorID.
func TestSecretIDTableDerivationsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	from := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(5 * 24 * time.Hour)
	table := NewSecretIDTable(from, to)
	if !table.Covers(from, to) {
		t.Fatal("table does not cover its own window")
	}
	if table.Covers(from.Add(-48*time.Hour), to) {
		t.Fatal("table claims to cover instants before its window")
	}
	instants := []time.Time{
		from, from.Add(36 * time.Hour), to, // inside
		from.Add(-30 * 24 * time.Hour), to.Add(30 * 24 * time.Hour), // fallback
	}
	for i := 0; i < 50; i++ {
		id := GenerateKey(rng).PermanentID()
		for _, tab := range []*SecretIDTable{table, nil} {
			for _, at := range instants {
				for r := uint8(0); r < Replicas; r++ {
					if got, want := tab.DescriptorIDsAt(id, at)[r], ComputeDescriptorID(id, at, r); got != want {
						t.Fatalf("table %v: DescriptorIDsAt(%v)[%d] diverges from direct derivation", tab != nil, at, r)
					}
					if got, want := tab.DescriptorIDForPeriod(id, TimePeriod(id, at), r), ComputeDescriptorID(id, at, r); got != want {
						t.Fatalf("table %v: DescriptorIDForPeriod at %v, replica %d diverges from direct derivation", tab != nil, at, r)
					}
				}
				if got, want := tab.DescriptorIDsAt(id, at), DescriptorIDs(id, at); got != want {
					t.Fatalf("table %v: DescriptorIDsAt(%v) diverges from DescriptorIDs", tab != nil, at)
				}
			}
		}
	}
}
