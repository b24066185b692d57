package consensus

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"torhs/internal/relay"
)

func buildDoc(t *testing.T, seed int64, validAfter time.Time, n int) *Document {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	auth := NewAuthority(DefaultThresholds())
	for i := 0; i < n; i++ {
		r := relay.New(relay.Config{
			ID:        relay.ID(i),
			Nickname:  "node",
			IP:        randIP(rng),
			ORPort:    9001,
			Bandwidth: 100 + rng.Intn(400),
		}, rng)
		r.Start(validAfter.Add(-30 * time.Hour))
		auth.Register(r)
	}
	return auth.Publish(validAfter)
}

func randIP(rng *rand.Rand) string {
	return "10." + itoa(rng.Intn(256)) + "." + itoa(rng.Intn(256)) + "." + itoa(rng.Intn(254)+1)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func TestHistoryAtPicksLatestNotAfter(t *testing.T) {
	h := NewHistory()
	d1 := &Document{ValidAfter: at(0)}
	d2 := &Document{ValidAfter: at(24)}
	if err := h.Append(d1); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(d2); err != nil {
		t.Fatal(err)
	}

	got, err := h.At(at(12))
	if err != nil {
		t.Fatal(err)
	}
	if got != d1 {
		t.Fatal("At(12h) returned wrong document")
	}
	got, err = h.At(at(24))
	if err != nil {
		t.Fatal(err)
	}
	if got != d2 {
		t.Fatal("At(24h) returned wrong document")
	}
}

func TestHistoryAtBeforeFirst(t *testing.T) {
	h := NewHistory()
	if err := h.Append(&Document{ValidAfter: at(10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.At(at(5)); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("err = %v, want ErrNoDocument", err)
	}
}

func TestHistoryAppendOutOfOrderRejected(t *testing.T) {
	h := NewHistory()
	if err := h.Append(&Document{ValidAfter: at(10)}); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(&Document{ValidAfter: at(5)}); err == nil {
		t.Fatal("out-of-order append succeeded")
	}
}

func TestHistoryRange(t *testing.T) {
	h := NewHistory()
	for d := 0; d < 10; d++ {
		if err := h.Append(&Document{ValidAfter: at(24 * d)}); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Range(at(48), at(96))
	if len(got) != 3 {
		t.Fatalf("range length = %d, want 3", len(got))
	}
	if !got[0].ValidAfter.Equal(at(48)) || !got[2].ValidAfter.Equal(at(96)) {
		t.Fatal("range bounds wrong")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	doc := buildDoc(t, 11, at(0), 40)
	var buf bytes.Buffer
	if err := doc.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ValidAfter.Equal(doc.ValidAfter) {
		t.Fatal("valid-after mismatch")
	}
	if len(got.Entries) != len(doc.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(doc.Entries))
	}
	for i := range got.Entries {
		a, b := got.Entries[i], doc.Entries[i]
		if a.Fingerprint != b.Fingerprint || a.Flags != b.Flags ||
			a.Bandwidth != b.Bandwidth || a.IP != b.IP ||
			a.Uptime != b.Uptime || a.RelayID != b.RelayID {
			t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "hello\n"},
		{"missing valid-after", headerLine + "\n"},
		{"bad valid-after", headerLine + "\nvalid-after yesterday\n"},
		{"valid-after past year 9999 in UTC", headerLine + "\nvalid-after 9999-12-31T23:59:59-23:59\n"},
		{"s before r", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\ns Fast\n"},
		{"short r line", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\nr onlyname\n"},
		{"bad fingerprint", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\nr n XYZ 1.2.3.4 9001 100 0 1\n"},
		{"unknown flag", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\nr n " + strings.Repeat("AB", 20) + " 1.2.3.4 9001 100 0 1\ns Turbo\n"},
		{"junk line", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\nx what\n"},
		{"uptime overflows Duration", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\nr n " + strings.Repeat("AB", 20) + " 1.2.3.4 9001 100 9223372036854775807 7\n"},
		{"negative uptime", headerLine + "\nvalid-after 2013-02-04T00:00:00Z\nr n " + strings.Repeat("AB", 20) + " 1.2.3.4 9001 100 -1 7\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Unmarshal(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("Unmarshal(%q) succeeded, want error", tc.in)
			}
		})
	}
}

// Property: any authority-produced document survives a codec round trip
// bit-for-bit on all fields.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		doc := buildDoc(t, seed, at(int(n%48)), int(n%60)+1)
		var buf bytes.Buffer
		if err := doc.Marshal(&buf); err != nil {
			return false
		}
		got, err := Unmarshal(&buf)
		if err != nil {
			return false
		}
		if len(got.Entries) != len(doc.Entries) || !got.ValidAfter.Equal(doc.ValidAfter) {
			return false
		}
		for i := range got.Entries {
			a, b := got.Entries[i], doc.Entries[i]
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHSDirsAndGuardsFiltering(t *testing.T) {
	doc := buildDoc(t, 12, at(0), 60)
	hsdirs := doc.HSDirs()
	if len(hsdirs) == 0 {
		t.Fatal("no HSDirs in 30h-old population")
	}
	for _, f := range hsdirs {
		e, ok := doc.Lookup(f)
		if !ok || !e.Flags.Has(FlagHSDir) {
			t.Fatal("HSDirs() returned non-HSDir entry")
		}
	}
	for i := 1; i < len(hsdirs); i++ {
		if !hsdirs[i-1].Less(hsdirs[i]) {
			t.Fatal("HSDirs not in ring order")
		}
	}
	for _, f := range doc.Guards() {
		e, ok := doc.Lookup(f)
		if !ok || !e.Flags.Has(FlagGuard) {
			t.Fatal("Guards() returned non-Guard entry")
		}
	}
}
