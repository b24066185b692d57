package onion

import (
	"math/rand"
	"testing"
	"time"
)

// The ring arithmetic and descriptor-ID derivation sit in the innermost
// loops of tracking detection and popularity resolution; these tests lock
// in their zero-allocation guarantee.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, fn); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestRingArithmeticAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := RingIntFromFingerprint(RandomFingerprint(rng))
	b := RingIntFromFingerprint(RandomFingerprint(rng))
	var (
		outR RingInt
		outF float64
	)
	assertZeroAllocs(t, "SubMod", func() { outR = a.SubMod(b) })
	assertZeroAllocs(t, "Add", func() { outR = a.Add(b) })
	assertZeroAllocs(t, "DivScalar", func() { outR = a.DivScalar(1862) })
	assertZeroAllocs(t, "MulScalar", func() { outR = a.MulScalar(1862) })
	assertZeroAllocs(t, "Float64", func() { outF = a.Float64() })
	assertZeroAllocs(t, "MaxRingAvgGap", func() { outR = MaxRingAvgGap(1400) })
	assertZeroAllocs(t, "RingRatio", func() { outF = RingRatio(a, b) })
	_, _ = outR, outF
}

func TestFingerprintCompareAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	f1 := RandomFingerprint(rng)
	f2 := RandomFingerprint(rng)
	var d1 DescriptorID
	copy(d1[:], f1[:])
	var out int
	var outB bool
	assertZeroAllocs(t, "Fingerprint.Compare", func() { out = f1.Compare(f2) })
	assertZeroAllocs(t, "Fingerprint.Less", func() { outB = f1.Less(f2) })
	assertZeroAllocs(t, "Distance", func() { _ = Distance(d1, f2) })
	_, _ = out, outB
}

func TestDescriptorDerivationAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	id := GenerateKey(rng).PermanentID()
	at := time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC)
	var out DescriptorID
	assertZeroAllocs(t, "ComputeDescriptorID", func() { out = ComputeDescriptorID(id, at, 1) })
	_ = out

	from := at
	to := at.Add(3 * 24 * time.Hour)
	buf := DescriptorIDsOverRange(id, from, to) // warm: sized for the window
	table := NewSecretIDTable(from, to)
	assertZeroAllocs(t, "DescriptorIDsOverRangeInto", func() {
		buf = DescriptorIDsOverRangeInto(buf[:0], id, from, to)
	})
	assertZeroAllocs(t, "SecretIDTable.DescriptorIDsInto", func() {
		buf = table.DescriptorIDsInto(buf[:0], id, from, to)
	})
}
