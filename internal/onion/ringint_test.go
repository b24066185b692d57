package onion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRingIntSubModSimple(t *testing.T) {
	a := ringIntFromBytes([]byte{5})
	b := ringIntFromBytes([]byte{3})
	if got := a.SubMod(b).Float64(); got != 2 {
		t.Fatalf("5-3 = %v, want 2", got)
	}
}

func TestRingIntSubModWraps(t *testing.T) {
	a := ringIntFromBytes([]byte{3})
	b := ringIntFromBytes([]byte{5})
	// (3-5) mod 2^160 = 2^160 - 2.
	got := a.SubMod(b)
	want := math.Pow(2, 160) - 2
	if rel := math.Abs(got.Float64()-want) / want; rel > 1e-12 {
		t.Fatalf("wraparound = %v, want ~%v", got.Float64(), want)
	}
}

func TestRingIntAddSubInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a := RingIntFromFingerprint(RandomFingerprint(rng))
		b := RingIntFromFingerprint(RandomFingerprint(rng))
		if got := a.Add(b).SubMod(b); got != a {
			t.Fatalf("(a+b)-b != a: %x vs %x", got.bytes20(), a.bytes20())
		}
	}
}

func TestRingRatioInfinityOnZeroDistance(t *testing.T) {
	avg := ringIntFromBytes([]byte{1, 0})
	if got := RingRatio(avg, ringIntFromBytes(nil)); !math.IsInf(got, 1) {
		t.Fatalf("ratio with zero distance = %v, want +Inf", got)
	}
}

func TestRingRatioPlainDivision(t *testing.T) {
	avg := ringIntFromBytes([]byte{100})
	dist := ringIntFromBytes([]byte{4})
	if got := RingRatio(avg, dist); got != 25 {
		t.Fatalf("ratio = %v, want 25", got)
	}
}

func TestDistanceForwardOnRing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		f := RandomFingerprint(rng)
		var d DescriptorID
		copy(d[:], f[:])
		// Distance from an ID to the identical fingerprint is zero.
		if Distance(d, f) != (RingInt{}) {
			t.Fatal("distance to self not zero")
		}
	}
}

// Property: Distance(id, f) + id == f on the ring.
func TestQuickDistanceConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fp := RandomFingerprint(rng)
		var id DescriptorID
		id2 := RandomFingerprint(rng)
		copy(id[:], id2[:])
		dist := Distance(id, fp)
		back := RingIntFromDescriptorID(id).Add(dist)
		return back == RingIntFromFingerprint(fp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
