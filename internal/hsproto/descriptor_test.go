package hsproto

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"torhs/internal/onion"
)

func makeDescriptor(t *testing.T, seed int64, replica uint8) (*onion.Descriptor, onion.IdentityKey) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	key := onion.GenerateKey(rng)
	permID := key.PermanentID()
	at := time.Date(2013, 2, 4, 10, 30, 0, 0, time.UTC)
	intro := []onion.Fingerprint{
		onion.RandomFingerprint(rng),
		onion.RandomFingerprint(rng),
		onion.RandomFingerprint(rng),
	}
	return &onion.Descriptor{
		DescID:      onion.ComputeDescriptorID(permID, at, replica),
		Address:     onion.AddressFromID(permID),
		PermID:      permID,
		Replica:     replica,
		PublishedAt: at,
		IntroPoints: intro,
	}, key
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, replica := range []uint8{0, 1} {
		d, key := makeDescriptor(t, int64(replica)+1, replica)
		var buf bytes.Buffer
		if err := Encode(&buf, d, key); err != nil {
			t.Fatal(err)
		}
		got, gotKey, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.DescID != d.DescID || got.Address != d.Address || got.PermID != d.PermID {
			t.Fatal("identity fields mismatch")
		}
		if got.Replica != replica {
			t.Fatalf("replica = %d, want %d", got.Replica, replica)
		}
		if !got.PublishedAt.Equal(d.PublishedAt) {
			t.Fatalf("publication time %v, want %v", got.PublishedAt, d.PublishedAt)
		}
		if len(got.IntroPoints) != len(d.IntroPoints) {
			t.Fatal("intro points lost")
		}
		for i := range got.IntroPoints {
			if got.IntroPoints[i] != d.IntroPoints[i] {
				t.Fatal("intro point mismatch")
			}
		}
		if !bytes.Equal(gotKey, key) {
			t.Fatal("key mismatch")
		}
	}
}

func TestEncodeFormatLooksLikeRendSpec(t *testing.T) {
	d, key := makeDescriptor(t, 3, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, d, key); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rendezvous-service-descriptor ",
		"version 2",
		"permanent-key ",
		"secret-id-part ",
		"publication-time 2013-02-04 10:30:00",
		"protocol-versions 2,3",
		"introduction-points ",
		"signature ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("encoded descriptor missing %q:\n%s", want, out)
		}
	}
}

func TestDecodeRejectsTamperedBody(t *testing.T) {
	d, key := makeDescriptor(t, 4, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, d, key); err != nil {
		t.Fatal(err)
	}
	// Flip the publication time: signature must fail.
	tampered := strings.Replace(buf.String(), "10:30:00", "10:30:01", 1)
	_, _, err := Decode(strings.NewReader(tampered))
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestDecodeRejectsWrongDescriptorID(t *testing.T) {
	d, key := makeDescriptor(t, 5, 0)
	// Lie about the descriptor ID (valid format, inconsistent with the
	// key): clients must not accept it.
	other, _ := makeDescriptor(t, 6, 0)
	d.DescID = other.DescID
	var buf bytes.Buffer
	if err := Encode(&buf, d, key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(&buf); err == nil {
		t.Fatal("descriptor with inconsistent ID accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"hello world\n",
		"rendezvous-service-descriptor !!!\n",
		"rendezvous-service-descriptor aaaaaaaaaaaaaaaa\nversion 3\n",
	}
	for _, in := range cases {
		if _, _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("Decode(%q) succeeded", in)
		}
	}
}

// Property: encode/decode is the identity for any generated descriptor.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, hourOffset uint16, replica, intros uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		key := onion.GenerateKey(rng)
		permID := key.PermanentID()
		at := time.Unix(1359936000+int64(hourOffset)*3600, 0).UTC()
		r := replica % 2
		ips := make([]onion.Fingerprint, intros%5)
		for i := range ips {
			ips[i] = onion.RandomFingerprint(rng)
		}
		d := &onion.Descriptor{
			DescID:      onion.ComputeDescriptorID(permID, at, r),
			Address:     onion.AddressFromID(permID),
			PermID:      permID,
			Replica:     r,
			PublishedAt: at,
			IntroPoints: ips,
		}
		var buf bytes.Buffer
		if err := Encode(&buf, d, key); err != nil {
			return false
		}
		got, gotKey, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.DescID != d.DescID || got.PermID != d.PermID ||
			!got.PublishedAt.Equal(d.PublishedAt) || len(got.IntroPoints) != len(ips) {
			return false
		}
		return bytes.Equal(gotKey, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeNilDescriptor(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil, nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

// TestDecodeRejectsWhatEncodeCannotWrite feeds correctly signed
// variants of a valid descriptor that Encode could never have written.
func TestDecodeRejectsWhatEncodeCannotWrite(t *testing.T) {
	d, key := makeDescriptor(t, 1, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, d, key); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	if _, _, err := Decode(bytes.NewReader(signBody([]byte(valid)))); err != nil {
		t.Fatalf("re-signed valid descriptor rejected: %v", err)
	}
	lines := strings.SplitAfter(valid, "\n")
	introLine, sigLine := lines[len(lines)-3], lines[len(lines)-2]
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"fractional seconds", signBody([]byte(strings.Replace(valid, "10:30:00\n", "10:30:00.5\n", 1)))},
		{"comma fractional seconds", signBody([]byte(strings.Replace(valid, "10:30:00\n", "10:30:00,5\n", 1)))},
		{"no version", signBody([]byte(strings.Replace(valid, "version 2\n", "", 1)))},
		{"repeated version", signBody([]byte(strings.Replace(valid, "version 2\n", "version 2\nversion 2\n", 1)))},
		{"repeated introduction-points", signBody([]byte(valid + introLine))},
		{"repeated signature", []byte(valid + sigLine)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode(bytes.NewReader(tc.in)); err == nil {
				t.Fatalf("Decode accepted\n%s", tc.in)
			}
		})
	}
}
