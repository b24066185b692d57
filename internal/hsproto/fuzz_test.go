package hsproto

import (
	"bytes"
	"encoding/base64"
	"reflect"
	"strings"
	"testing"
)

// signBody turns body into a descriptor that passes the signature
// check: it keeps the lines Decode signs over (blank lines and any
// signature line dropped, a trailing CR stripped), signs them with the
// permanent-key line's key, and appends the signature. A fuzzer cannot
// forge the SHA-1 signature itself.
func signBody(body []byte) []byte {
	var signed bytes.Buffer
	var key []byte
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSuffix(line, "\r")
		keyword, rest, _ := strings.Cut(line, " ")
		if strings.TrimSpace(line) == "" || keyword == "signature" {
			continue
		}
		if keyword == "permanent-key" && key == nil {
			key, _ = base64.StdEncoding.DecodeString(rest)
		}
		signed.WriteString(line)
		signed.WriteByte('\n')
	}
	sig := sign(signed.Bytes(), key)
	signed.WriteString("signature " + base64.StdEncoding.EncodeToString(sig) + "\n")
	return signed.Bytes()
}

// FuzzDecode fuzzes a descriptor body, signed inside the target, and
// checks that every descriptor Decode accepts is one Encode can write:
// re-encoding it and decoding the result gives the same descriptor and
// key.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		d, key, err := Decode(bytes.NewReader(signBody(body)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, d, key); err != nil {
			t.Fatalf("Encode of an accepted descriptor failed: %v", err)
		}
		again, againKey, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded descriptor does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, d) || !bytes.Equal(againKey, key) {
			t.Fatalf("re-encoding moved the descriptor:\nfirst:  %+v\nsecond: %+v", d, again)
		}
	})
}
