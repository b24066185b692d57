package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
)

// A frame is the on-disk form of checkpoints and intermediates: a
// one-line integrity header — the format magic and the hex SHA-256 of
// the payload — followed by the gob-encoded state.

// encodeFrame gob-encodes state behind an integrity header carrying
// magic. The payload is encoded after room left for the header, which is
// filled in once the hash is known, so the frame is never copied.
func encodeFrame(magic string, state any) ([]byte, error) {
	hdr := len(magic) + 2 + 2*sha256.Size
	buf := bytes.NewBuffer(make([]byte, hdr, 4096))
	if err := gob.NewEncoder(buf).Encode(state); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	sum := sha256.Sum256(data[hdr:])
	n := copy(data, magic)
	data[n] = ' '
	hex.Encode(data[n+1:], sum[:])
	data[hdr-1] = '\n'
	return data, nil
}

// decodeFrame verifies data's header magic and payload hash, then
// gob-decodes the payload into state.
func decodeFrame(magic string, data []byte, state any) error {
	header, payload, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return fmt.Errorf("missing header")
	}
	got, wantHex, found := strings.Cut(string(header), " ")
	if !found || got != magic {
		return fmt.Errorf("bad magic %q", got)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantHex {
		return fmt.Errorf("payload hash mismatch (torn write?)")
	}
	// gob leaves fields the payload does not carry untouched, and a
	// payload that fails part-way has already set some, so a state
	// reused across decodes (Latest's fallback, a retried read) is zeroed
	// first and cannot keep values from an earlier payload.
	if v := reflect.ValueOf(state); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(state); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	return nil
}
