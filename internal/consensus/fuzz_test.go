package consensus

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal checks that Unmarshal never panics and that every
// document it accepts re-marshals to bytes that parse again and
// re-marshal to the identical bytes (an uptime beyond time.Duration's
// range once parsed as -1 s and re-marshalled as -1). The seed corpus
// is under testdata/fuzz/FuzzUnmarshal.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		doc, err := Unmarshal(bytes.NewReader(in))
		if err != nil {
			return
		}
		first, err := doc.MarshalText()
		if err != nil {
			t.Fatalf("Marshal of an accepted document failed: %v", err)
		}
		again, err := Unmarshal(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-marshalled document does not parse: %v\n%s", err, first)
		}
		second, err := again.MarshalText()
		if err != nil {
			t.Fatalf("second Marshal failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal not stable:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
