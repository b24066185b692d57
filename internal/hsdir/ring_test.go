package hsdir

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"torhs/internal/onion"
)

func randomRing(rng *rand.Rand, n int) *Ring {
	fps := make([]onion.Fingerprint, n)
	for i := range fps {
		fps[i] = onion.RandomFingerprint(rng)
	}
	return NewRing(fps)
}

func TestNewRingSortsAndDedups(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f1 := onion.RandomFingerprint(rng)
	f2 := onion.RandomFingerprint(rng)
	ring := NewRing([]onion.Fingerprint{f2, f1, f2, f1})
	if ring.Len() != 2 {
		t.Fatalf("ring length = %d, want 2", ring.Len())
	}
	fps := ring.Fingerprints()
	if !fps[0].Less(fps[1]) {
		t.Fatal("ring not sorted")
	}
}

func TestResponsibleReturnsFollowingFingerprints(t *testing.T) {
	// Construct a ring with known fingerprints 0x10, 0x20, 0x30 (in the
	// first byte) and check wrap-around behaviour.
	mk := func(b byte) onion.Fingerprint {
		var f onion.Fingerprint
		f[0] = b
		return f
	}
	ring := NewRing([]onion.Fingerprint{mk(0x10), mk(0x20), mk(0x30)})

	var d onion.DescriptorID
	d[0] = 0x15
	got := ring.Responsible(d, 2)
	if got[0] != mk(0x20) || got[1] != mk(0x30) {
		t.Fatalf("responsible for 0x15 = %v", got)
	}

	// Descriptor beyond the last fingerprint wraps to the start.
	d[0] = 0x35
	got = ring.Responsible(d, 2)
	if got[0] != mk(0x10) || got[1] != mk(0x20) {
		t.Fatalf("responsible for 0x35 = %v (no wrap)", got)
	}

	// Exact match: responsibility starts strictly after the ID.
	d = onion.DescriptorID{}
	d[0] = 0x20
	got = ring.Responsible(d, 1)
	if got[0] != mk(0x30) {
		t.Fatalf("responsible for exact 0x20 = %v, want 0x30", got)
	}
}

func TestResponsibleSpreadLargerThanRing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ring := randomRing(rng, 2)
	var d onion.DescriptorID
	if got := ring.Responsible(d, 5); len(got) != 2 {
		t.Fatalf("len = %d, want clamped 2", len(got))
	}
}

func TestResponsibleEmptyRing(t *testing.T) {
	ring := NewRing(nil)
	var d onion.DescriptorID
	if got := ring.Responsible(d, 3); got != nil {
		t.Fatalf("responsible on empty ring = %v, want nil", got)
	}
}

func TestResponsibleMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ring := randomRing(rng, 200)
	for i := 0; i < 500; i++ {
		var d onion.DescriptorID
		f := onion.RandomFingerprint(rng)
		copy(d[:], f[:])
		a := ring.Responsible(d, 3)
		b := ring.ResponsibleLinear(d, 3)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("binary/linear mismatch at query %d", i)
			}
		}
	}
}

func TestResponsibleForServiceAtYieldsSixDirectories(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ring := randomRing(rng, 1000)
	id := onion.GenerateKey(rng).PermanentID()
	at := time.Date(2013, 2, 4, 12, 0, 0, 0, time.UTC)

	got := ring.ResponsibleForServiceAt(id, at)
	if len(got) != onion.Replicas*onion.SpreadPerReplica {
		t.Fatalf("responsible set size = %d, want %d", len(got), onion.Replicas*onion.SpreadPerReplica)
	}
}

func TestAverageGapApproximatesUniformSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ring := randomRing(rng, 1024)
	want := math.Pow(2, 160) / 1024
	got := ring.AverageGap().Float64()
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Fatalf("average gap = %g, want %g", got, want)
	}
}

func TestAverageGapTinyRing(t *testing.T) {
	ring := NewRing(nil)
	if ring.AverageGap() != (onion.RingInt{}) {
		t.Fatal("average gap of empty ring not zero")
	}
}

// Property: responsibility is deterministic and returns ring members in
// ring order starting strictly after the ID.
func TestQuickResponsibleInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%500) + 4
		ring := randomRing(rng, size)
		var d onion.DescriptorID
		fp := onion.RandomFingerprint(rng)
		copy(d[:], fp[:])

		got := ring.Responsible(d, 3)
		if len(got) != 3 {
			return false
		}
		// Deterministic.
		again := ring.Responsible(d, 3)
		for i := range got {
			if got[i] != again[i] {
				return false
			}
		}
		// All distinct members of the ring.
		members := make(map[onion.Fingerprint]bool, ring.Len())
		for _, m := range ring.Fingerprints() {
			members[m] = true
		}
		seen := make(map[onion.Fingerprint]bool, 3)
		for _, g := range got {
			if !members[g] || seen[g] {
				return false
			}
			seen[g] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResponsibleIndicesMatchFingerprints pins the handle-based lookup to
// the fingerprint-based one: position i must always name the same relay.
func TestResponsibleIndicesMatchFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 3, 7, 400} {
		fps := make([]onion.Fingerprint, n)
		for i := range fps {
			fps[i] = onion.RandomFingerprint(rng)
		}
		ring := NewRing(fps)
		ringFPs := ring.Fingerprints()
		for trial := 0; trial < 200; trial++ {
			f := onion.RandomFingerprint(rng)
			var id onion.DescriptorID
			copy(id[:], f[:])
			want := ring.Responsible(id, onion.SpreadPerReplica)
			got := ring.ResponsibleIndicesInto(nil, id, onion.SpreadPerReplica)
			if len(got) != len(want) {
				t.Fatalf("n=%d: len mismatch %d vs %d", n, len(got), len(want))
			}
			for i := range got {
				if ringFPs[got[i]] != want[i] {
					t.Fatalf("n=%d: position %d resolves to %x, want %x",
						n, got[i], ringFPs[got[i]], want[i])
				}
			}
		}
	}
}
