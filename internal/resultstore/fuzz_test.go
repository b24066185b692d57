package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"testing"
)

// signFrame puts payload behind a valid checkpoint header, so that a
// mutated payload passes the integrity check and reaches gob.
func signFrame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append([]byte(ckptMagic+" "+hex.EncodeToString(sum[:])+"\n"), payload...)
}

// FuzzDecodeFrame fuzzes the checkpoint frame decoder: raw file bytes (header included) when sign is
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
		if err := decodeFrame(data, &st); err != nil {
			return
		}
		first, err := encodeFrame(&st)
		if err != nil {
			t.Fatalf("accepted state does not encode: %v\n%+v", err, st)
		}
		var again ckptState
		if err := decodeFrame(first, &again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !maps.Equal(st.Counts, again.Counts) {
			t.Fatalf("re-encoding moved the map: %v vs %v", st.Counts, again.Counts)
		}
		st.Counts, again.Counts = nil, nil
		first, _ = encodeFrame(&st)
		second, err := encodeFrame(&again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is unstable (%v):\nfirst:  %q\nsecond: %q", err, first, second)
		}
	})
}

// TestFrameRoundTrip checks a frame decodes what it encodes and rejects
// a header carrying any other magic.
func TestFrameRoundTrip(t *testing.T) {
	data, err := encodeFrame(testState(3))
	if err != nil {
		t.Fatal(err)
	}
	var got ckptState
	if err := decodeFrame(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Window != 3 || got.Counts["descriptors"] != 68 || !got.At.Equal(testState(3).At) {
		t.Fatalf("round trip gave %+v", got)
	}
	other := append([]byte("torhs-int/2"), data[len(ckptMagic):]...)
	if err := decodeFrame(other, &got); err == nil {
		t.Fatal("frame with a foreign magic accepted")
	}
}

// FuzzDecodeEntry fuzzes the decoder behind Open's scan and every entry
// read (Get, Lookup, List, GC): an entry file's bytes are refused with an
// error, never a panic, or the accepted entry re-marshals to bytes that
// decode to an equal entry.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("accepted entry does not marshal: %v\n%+v", err, e)
		}
		again, err := decodeEntry(out)
		if err != nil {
			t.Fatalf("re-marshalled entry does not decode: %v\n%s", err, out)
		}
		if *again != *e {
			t.Fatalf("re-marshalling changed the entry:\nfirst:  %+v\nsecond: %+v", e, again)
		}
	})
}
