package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"testing"
)

// signFrame puts payload behind a valid checkpoint header, so that a
// mutated payload passes the integrity check and reaches gob.
func signFrame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append([]byte(ckptMagic+" "+hex.EncodeToString(sum[:])+"\n"), payload...)
}

// FuzzDecodeFrame fuzzes the frame decoder that checkpoints and
// intermediates share: raw file bytes (header included) when sign is
// false, a payload signed inside the target when it is true. Property:
// decodeFrame rejects the input with an error, never a panic, or the
// state it accepts re-encodes stably — encoding it gives a frame that
// decodes, and whose state encodes to the identical bytes. (gob accepts
// streams its encoder never writes, such as other type-id numberings, so
// the accepted input itself need not be what the encoder writes, and gob
// writes a map in iteration order, so maps compare by content.)
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, sign bool) {
		if sign {
			data = signFrame(data)
		}
		var st ckptState
		if err := decodeFrame(ckptMagic, data, &st); err != nil {
			return
		}
		first, err := encodeFrame(ckptMagic, &st)
		if err != nil {
			t.Fatalf("accepted state does not encode: %v\n%+v", err, st)
		}
		var again ckptState
		if err := decodeFrame(ckptMagic, first, &again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !maps.Equal(st.Counts, again.Counts) {
			t.Fatalf("re-encoding moved the map: %v vs %v", st.Counts, again.Counts)
		}
		st.Counts, again.Counts = nil, nil
		first, _ = encodeFrame(ckptMagic, &st)
		second, err := encodeFrame(ckptMagic, &again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is unstable (%v):\nfirst:  %q\nsecond: %q", err, first, second)
		}
	})
}

// TestFrameRoundTrip checks both frame kinds decode what they encode and
// reject each other's magic.
func TestFrameRoundTrip(t *testing.T) {
	for _, magic := range []string{ckptMagic, intMagic} {
		data, err := encodeFrame(magic, testState(3))
		if err != nil {
			t.Fatal(err)
		}
		var got ckptState
		if err := decodeFrame(magic, data, &got); err != nil {
			t.Fatalf("%s: %v", magic, err)
		}
		if got.Window != 3 || got.Counts["descriptors"] != 68 || !got.At.Equal(testState(3).At) {
			t.Fatalf("%s: round trip gave %+v", magic, got)
		}
		other := ckptMagic
		if magic == ckptMagic {
			other = intMagic
		}
		if err := decodeFrame(other, data, &got); err == nil {
			t.Fatalf("%s frame accepted as %s", magic, other)
		}
	}
}
