package onion

import (
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// Reference byte-wise implementations of the 160-bit ring arithmetic, as
// shipped before the limb rewrite. The property tests below pin the
// limb-based RingInt to these bit-for-bit.

func refSubMod(a, b [20]byte) [20]byte {
	var out [20]byte
	var borrow int
	for i := 19; i >= 0; i-- {
		d := int(a[i]) - int(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

func refAdd(a, b [20]byte) [20]byte {
	var out [20]byte
	var carry int
	for i := 19; i >= 0; i-- {
		s := int(a[i]) + int(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func refDivScalar(a [20]byte, n uint64) [20]byte {
	var out [20]byte
	if n == 0 {
		return out
	}
	var rem uint64
	for i := 0; i < 20; i++ {
		cur := rem*256 + uint64(a[i])
		out[i] = byte(cur / n)
		rem = cur % n
	}
	return out
}

func refMulScalar(a [20]byte, n uint64) [20]byte {
	var out [20]byte
	var carry uint64
	for i := 19; i >= 0; i-- {
		cur := uint64(a[i])*n + carry
		out[i] = byte(cur)
		carry = cur >> 8
	}
	return out
}

func refMaxRingAvgGap(n uint64) [20]byte {
	var out [20]byte
	if n == 0 {
		return out
	}
	var rem uint64
	dividend := make([]byte, 21)
	dividend[0] = 1
	quot := make([]byte, 21)
	for i, b := range dividend {
		cur := rem*256 + uint64(b)
		quot[i] = byte(cur / n)
		rem = cur % n
	}
	copy(out[:], quot[1:])
	return out
}

func refCmp(a, b [20]byte) int {
	for i := 0; i < 20; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func refFloat64(a [20]byte) float64 {
	var out float64
	for i := 0; i < 20; i++ {
		out = out*256 + float64(a[i])
	}
	return out
}

// edgeValues are 160-bit patterns that exercise borrows and carries
// across every limb boundary of the [3]uint64 representation.
func edgeValues() [][20]byte {
	patterns := [][20]byte{
		{},                             // zero
		{19: 1},                        // one
		{0: 0xFF},                      // high byte set
		{3: 0x01},                      // top-limb low bit
		{4: 0x01},                      // mid-limb high bit region
		{11: 0x01},                     // mid-limb low end
		{12: 0x01},                     // low-limb high end
		{19: 0xFF},                     // low byte max
		{3: 0xFF, 4: 0xFF, 5: 0xFF},    // straddle hi/mid boundary
		{10: 0xFF, 11: 0xFF, 12: 0xFF}, // straddle mid/lo boundary
	}
	var all [20]byte
	for i := range all {
		all[i] = 0xFF
	}
	patterns = append(patterns, all) // 2^160 - 1
	return patterns
}

func randomValues(rng *rand.Rand, n int) [][20]byte {
	out := make([][20]byte, n)
	for i := range out {
		for j := range out[i] {
			out[i][j] = byte(rng.Intn(256))
		}
	}
	return out
}

// TestRingIntMatchesByteReference drives the limb implementation and the
// historical byte-wise implementation through the same random and edge
// 160-bit values and requires identical results everywhere, including
// the borrow/carry cases at the limb boundaries.
func TestRingIntMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vals := append(edgeValues(), randomValues(rng, 500)...)
	// The byte-wise reference computed rem*256 (DivScalar) and byte*n
	// (MulScalar) in uint64 and silently overflowed for n ≳ 2^56; the
	// limb implementation is exact for the full uint64 range (see
	// TestRingIntScalarOpsBigIntOracle), so the byte comparison stops
	// where the reference was sound.
	scalars := []uint64{1, 2, 3, 7, 256, 757, 1862, 1 << 20, 1 << 55}

	for i, a := range vals {
		ra := ringIntFromBytes(a[:])
		if got := ra.bytes20(); got != a {
			t.Fatalf("roundtrip %d: got %x want %x", i, got, a)
		}
		if got, want := ra.Float64(), refFloat64(a); got != want {
			t.Fatalf("Float64(%x) = %v, want %v", a, got, want)
		}
		for _, b := range vals {
			rb := ringIntFromBytes(b[:])
			if got, want := ra.SubMod(rb).bytes20(), refSubMod(a, b); got != want {
				t.Fatalf("SubMod(%x, %x) = %x, want %x", a, b, got, want)
			}
			if got, want := ra.Add(rb).bytes20(), refAdd(a, b); got != want {
				t.Fatalf("Add(%x, %x) = %x, want %x", a, b, got, want)
			}
		}
		for _, n := range scalars {
			if got, want := ra.DivScalar(n).bytes20(), refDivScalar(a, n); got != want {
				t.Fatalf("DivScalar(%x, %d) = %x, want %x", a, n, got, want)
			}
			if got, want := ra.MulScalar(n).bytes20(), refMulScalar(a, n); got != want {
				t.Fatalf("MulScalar(%x, %d) = %x, want %x", a, n, got, want)
			}
		}
		if got, want := ra.DivScalar(0).bytes20(), refDivScalar(a, 0); got != want {
			t.Fatalf("DivScalar(%x, 0) = %x, want %x", a, got, want)
		}
	}

	for _, n := range append([]uint64{0}, scalars...) {
		if got, want := MaxRingAvgGap(n).bytes20(), refMaxRingAvgGap(n); got != want {
			t.Fatalf("MaxRingAvgGap(%d) = %x, want %x", n, got, want)
		}
	}
}

// TestRingIntScalarOpsBigIntOracle verifies DivScalar and MulScalar
// against math/big over the full uint64 scalar range — including the
// n ≳ 2^56 region where the retired byte-wise implementation overflowed.
func TestRingIntScalarOpsBigIntOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	mod := new(big.Int).Lsh(big.NewInt(1), 160)
	vals := append(edgeValues(), randomValues(rng, 50)...)
	scalars := []uint64{1, 3, 757, 1 << 40, 1 << 56, 1<<63 + 7, 1<<64 - 1}
	for _, a := range vals {
		ra := ringIntFromBytes(a[:])
		ba := new(big.Int).SetBytes(a[:])
		for _, n := range scalars {
			bn := new(big.Int).SetUint64(n)
			wantDiv := new(big.Int).Quo(ba, bn)
			if got := ra.DivScalar(n).bytes20(); !bytesEqualBig(got, wantDiv) {
				t.Fatalf("DivScalar(%x, %d) = %x, want %x", a, n, got, wantDiv)
			}
			wantMul := new(big.Int).Mod(new(big.Int).Mul(ba, bn), mod)
			if got := ra.MulScalar(n).bytes20(); !bytesEqualBig(got, wantMul) {
				t.Fatalf("MulScalar(%x, %d) = %x, want %x", a, n, got, wantMul)
			}
		}
	}
}

func bytesEqualBig(got [20]byte, want *big.Int) bool {
	var buf [20]byte
	want.FillBytes(buf[:])
	return got == buf
}

// TestCompare160MatchesByteLoop pins the word-wise fingerprint compare to
// the byte-loop ordering.
func TestCompare160MatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	vals := append(edgeValues(), randomValues(rng, 200)...)
	for _, a := range vals {
		for _, b := range vals {
			fa, fb := Fingerprint(a), Fingerprint(b)
			if got, want := fa.Compare(fb), refCmp(a, b); got != want {
				t.Fatalf("Compare(%x, %x) = %d, want %d", a, b, got, want)
			}
			if got, want := fa.Less(fb), refCmp(a, b) < 0; got != want {
				t.Fatalf("Less(%x, %x) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestSecretIDTableMatchesDirectDerivation checks that the shared
// secret-part table yields exactly the IDs of the direct per-service
// derivation over a window, including for services whose rollover offset
// pushes a period past the table's base range.
func TestSecretIDTableMatchesDirectDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	from := time.Date(2013, 1, 28, 0, 0, 0, 0, time.UTC)
	to := time.Date(2013, 2, 8, 0, 0, 0, 0, time.UTC)
	table := NewSecretIDTable(from, to)
	for i := 0; i < 200; i++ {
		id := GenerateKey(rng).PermanentID()
		want := DescriptorIDsOverRange(id, from, to)
		got := table.DescriptorIDsInto(nil, id, from, to)
		if len(got) != len(want) {
			t.Fatalf("service %d: %d IDs, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("service %d id %d: %x want %x", i, j, got[j], want[j])
			}
		}
	}
	// Outside the table's window the fallback path must still be exact.
	id := GenerateKey(rng).PermanentID()
	outFrom, outTo := from.AddDate(0, -1, 0), from.AddDate(0, -1, 3)
	want := DescriptorIDsOverRange(id, outFrom, outTo)
	got := table.DescriptorIDsInto(nil, id, outFrom, outTo)
	if len(got) != len(want) {
		t.Fatalf("fallback: %d IDs, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("fallback id %d: %x want %x", j, got[j], want[j])
		}
	}
}
