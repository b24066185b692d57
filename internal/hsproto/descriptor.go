// Package hsproto implements the v2 rendezvous-service-descriptor wire
// format (rend-spec.txt §1.3), the document a hidden service uploads to
// its responsible directories and clients parse after fetching. The
// trawler stores harvested descriptors in this format, and the CLI tools
// read and write it.
//
//	rendezvous-service-descriptor <descriptor-id, base32>
//	version 2
//	permanent-key <base64 key blob>
//	secret-id-part <base32>
//	publication-time <YYYY-MM-DD HH:MM:SS>
//	protocol-versions 2,3
//	introduction-points <base64 list of fingerprints>
//	signature <base64>
package hsproto

import (
	"bufio"
	"bytes"
	"crypto/sha1"
	"encoding/base32"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"torhs/internal/onion"
)

var b32 = base32.StdEncoding.WithPadding(base32.NoPadding)

// timeLayout is the descriptor timestamp format.
const timeLayout = "2006-01-02 15:04:05"

// Errors returned by parsing.
var (
	ErrBadDescriptor = errors.New("hsproto: malformed descriptor")
	ErrBadSignature  = errors.New("hsproto: signature check failed")
)

// Encode serialises a descriptor. The signature is a keyed digest over
// the body standing in for the RSA signature of the real format (the
// simulation's keys are opaque blobs; see DESIGN.md).
func Encode(w io.Writer, d *onion.Descriptor, key onion.IdentityKey) error {
	body, err := encodeBody(d, key)
	if err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	sig := sign(body, key)
	_, err = fmt.Fprintf(w, "signature %s\n", base64.StdEncoding.EncodeToString(sig))
	return err
}

func encodeBody(d *onion.Descriptor, key onion.IdentityKey) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil descriptor", ErrBadDescriptor)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "rendezvous-service-descriptor %s\n",
		strings.ToLower(b32.EncodeToString(d.DescID[:])))
	fmt.Fprintf(&buf, "version 2\n")
	fmt.Fprintf(&buf, "permanent-key %s\n", base64.StdEncoding.EncodeToString(key))
	secret := secretIDPart(d)
	fmt.Fprintf(&buf, "secret-id-part %s\n", strings.ToLower(b32.EncodeToString(secret[:])))
	fmt.Fprintf(&buf, "publication-time %s\n", d.PublishedAt.UTC().Format(timeLayout))
	fmt.Fprintf(&buf, "protocol-versions 2,3\n")

	var ips bytes.Buffer
	for _, fp := range d.IntroPoints {
		fmt.Fprintf(&ips, "introduction-point %s\n", strings.ToLower(b32.EncodeToString(fp[:])))
	}
	fmt.Fprintf(&buf, "introduction-points %s\n",
		base64.StdEncoding.EncodeToString(ips.Bytes()))
	return buf.Bytes(), nil
}

// secretIDPart recomputes SHA1(time-period | replica) for the
// descriptor's publication instant.
func secretIDPart(d *onion.Descriptor) [sha1.Size]byte {
	var buf [5]byte
	binary.BigEndian.PutUint32(buf[:4], onion.TimePeriod(d.PermID, d.PublishedAt))
	buf[4] = d.Replica
	return sha1.Sum(buf[:])
}

// sign computes the stand-in signature: SHA-1 over key ‖ body.
func sign(body []byte, key onion.IdentityKey) []byte {
	h := sha1.New()
	h.Write(key)
	h.Write(body)
	return h.Sum(nil)
}

// Decode parses a descriptor and verifies its signature and that the
// descriptor ID is consistent with the embedded permanent key (clients
// must verify both before trusting a fetched descriptor). It accepts
// only what Encode can write: each keyword at most once, exactly one
// "version 2" line, and a publication time in its canonical form.
func Decode(r io.Reader) (*onion.Descriptor, onion.IdentityKey, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	var (
		d    onion.Descriptor
		key  onion.IdentityKey
		sig  []byte
		body bytes.Buffer
		seen = map[string]bool{}
	)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		keyword, rest, _ := strings.Cut(line, " ")
		if seen[keyword] {
			return nil, nil, fmt.Errorf("%w: repeated %q line", ErrBadDescriptor, keyword)
		}
		seen[keyword] = true
		if keyword != "signature" {
			body.WriteString(line)
			body.WriteByte('\n')
		}
		switch keyword {
		case "rendezvous-service-descriptor":
			raw, err := b32.DecodeString(strings.ToUpper(rest))
			if err != nil || len(raw) != len(d.DescID) {
				return nil, nil, fmt.Errorf("%w: descriptor-id %q", ErrBadDescriptor, rest)
			}
			copy(d.DescID[:], raw)
		case "version":
			if rest != "2" {
				return nil, nil, fmt.Errorf("%w: version %q", ErrBadDescriptor, rest)
			}
		case "permanent-key":
			raw, err := base64.StdEncoding.DecodeString(rest)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: permanent-key: %v", ErrBadDescriptor, err)
			}
			key = onion.IdentityKey(raw)
		case "secret-id-part":
			// informational; recomputed below
		case "publication-time":
			t, err := time.Parse(timeLayout, rest)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: publication-time: %v", ErrBadDescriptor, err)
			}
			if t.Format(timeLayout) != rest {
				// time.Parse also takes fractional seconds the layout
				// does not name, which re-encoding would drop.
				return nil, nil, fmt.Errorf("%w: publication-time %q is not in %q form", ErrBadDescriptor, rest, timeLayout)
			}
			d.PublishedAt = t.UTC()
		case "protocol-versions":
			// informational
		case "introduction-points":
			raw, err := base64.StdEncoding.DecodeString(rest)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: introduction-points: %v", ErrBadDescriptor, err)
			}
			ips, err := parseIntroPoints(string(raw))
			if err != nil {
				return nil, nil, err
			}
			d.IntroPoints = ips
		case "signature":
			raw, err := base64.StdEncoding.DecodeString(rest)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: signature: %v", ErrBadDescriptor, err)
			}
			sig = raw
		default:
			return nil, nil, fmt.Errorf("%w: unknown keyword %q", ErrBadDescriptor, keyword)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if !seen["rendezvous-service-descriptor"] || !seen["version"] || key == nil || sig == nil {
		return nil, nil, fmt.Errorf("%w: missing required fields", ErrBadDescriptor)
	}

	// Verify the signature over the body.
	if !bytes.Equal(sig, sign(body.Bytes(), key)) {
		return nil, nil, ErrBadSignature
	}

	// Reconstruct identity and check descriptor-ID consistency.
	d.PermID = key.PermanentID()
	d.Address = onion.AddressFromID(d.PermID)
	d.Replica = 0
	ids := onion.DescriptorIDs(d.PermID, d.PublishedAt)
	ok := false
	for r, id := range ids {
		if id == d.DescID {
			d.Replica = uint8(r)
			ok = true
			break
		}
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: descriptor-id does not match permanent key and publication time", ErrBadDescriptor)
	}
	return &d, key, nil
}

func parseIntroPoints(s string) ([]onion.Fingerprint, error) {
	var out []onion.Fingerprint
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line == "" {
			continue
		}
		keyword, rest, _ := strings.Cut(line, " ")
		if keyword != "introduction-point" {
			return nil, fmt.Errorf("%w: intro-point line %q", ErrBadDescriptor, line)
		}
		raw, err := b32.DecodeString(strings.ToUpper(rest))
		if err != nil || len(raw) != sha1.Size {
			return nil, fmt.Errorf("%w: intro-point %q", ErrBadDescriptor, rest)
		}
		var fp onion.Fingerprint
		copy(fp[:], raw)
		out = append(out, fp)
	}
	return out, nil
}
