package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"strings"
)

// A frame is the on-disk form of checkpoints and intermediates: a
// one-line integrity header — the format magic and the hex SHA-256 of
// the payload — followed by the gob-encoded state.

// encodeFrame gob-encodes state behind an integrity header carrying
// magic.
func encodeFrame(magic string, state any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	data := make([]byte, 0, len(magic)+2+2*len(sum)+buf.Len())
	data = append(data, magic...)
	data = append(data, ' ')
	data = append(data, hex.EncodeToString(sum[:])...)
	data = append(data, '\n')
	return append(data, buf.Bytes()...), nil
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
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(state); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	return nil
}
