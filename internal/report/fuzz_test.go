package report

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeJSON feeds arbitrary bytes to DecodeJSON. Any input that
// decodes must encode in every format without panicking, and its
// canonical JSON must survive a decode/encode round trip byte for
// byte. The seed corpus lives in testdata/fuzz/FuzzDecodeJSON.
func FuzzDecodeJSON(f *testing.F) {
	paper, err := CanonicalJSON(sampleDocument())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(paper)
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, format := range Formats() {
			if err := Encode(io.Discard, doc, format); err != nil {
				t.Fatalf("Encode(%s): %v", format, err)
			}
		}
		c1, err := CanonicalJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJSON(bytes.NewReader(c1))
		if err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, c1)
		}
		c2, err := CanonicalJSON(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical JSON changed across a round trip:\n%s\n%s", c1, c2)
		}
	})
}
