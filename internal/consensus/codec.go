package consensus

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"torhs/internal/onion"
	"torhs/internal/relay"
)

// The text codec serialises consensus documents in a format modelled on
// Tor's v3 network-status documents, so archives produced by the
// simulation can be saved, inspected, and replayed by the CLI tools.
//
//	network-status-version 3 torhs
//	valid-after 2013-02-04T00:00:00Z
//	r <nickname> <fingerprint> <ip> <orport> <bandwidth> <uptime-sec> <relay-id>
//	s <flags...>

const headerLine = "network-status-version 3 torhs"

// maxUptimeSec is the largest uptime, in seconds, a time.Duration holds.
const maxUptimeSec = math.MaxInt64 / int64(time.Second)

// Marshal writes the document in the text format.
func (d *Document) Marshal(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, headerLine)
	fmt.Fprintf(bw, "valid-after %s\n", d.ValidAfter.UTC().Format(time.RFC3339))
	for _, e := range d.Entries {
		fmt.Fprintf(bw, "r %s %s %s %d %d %d %d\n",
			e.Nickname, e.Fingerprint.Hex(), e.IP, e.ORPort,
			e.Bandwidth, int64(e.Uptime/time.Second), int64(e.RelayID))
		fmt.Fprintf(bw, "s %s\n", e.Flags)
	}
	return bw.Flush()
}

// MarshalText returns the document as a byte slice.
func (d *Document) MarshalText() ([]byte, error) {
	var buf bytes.Buffer
	if err := d.Marshal(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal parses a document in the text format.
func Unmarshal(r io.Reader) (*Document, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	if !sc.Scan() {
		return nil, fmt.Errorf("consensus: empty document")
	}
	if got := sc.Text(); got != headerLine {
		return nil, fmt.Errorf("consensus: bad header %q", got)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("consensus: missing valid-after")
	}
	vaLine := sc.Text()
	if !strings.HasPrefix(vaLine, "valid-after ") {
		return nil, fmt.Errorf("consensus: bad valid-after line %q", vaLine)
	}
	va, err := time.Parse(time.RFC3339, strings.TrimPrefix(vaLine, "valid-after "))
	if err != nil {
		return nil, fmt.Errorf("consensus: parse valid-after: %w", err)
	}
	// Marshal writes the instant in UTC, which RFC 3339 can hold only for
	// years 0 to 9999; an offset can carry a parsed instant past either end.
	if y := va.UTC().Year(); y < 0 || y > 9999 {
		return nil, fmt.Errorf("consensus: valid-after %s is outside RFC 3339's years in UTC", va.Format(time.RFC3339))
	}

	doc := &Document{ValidAfter: va}
	var cur *Entry
	lineNo := 2
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "r "):
			fields := strings.Fields(line)
			if len(fields) != 8 {
				return nil, fmt.Errorf("consensus: line %d: r line has %d fields, want 8", lineNo, len(fields))
			}
			fp, err := parseFingerprint(fields[2])
			if err != nil {
				return nil, fmt.Errorf("consensus: line %d: %w", lineNo, err)
			}
			orPort, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("consensus: line %d: orport: %w", lineNo, err)
			}
			bw, err := strconv.Atoi(fields[5])
			if err != nil {
				return nil, fmt.Errorf("consensus: line %d: bandwidth: %w", lineNo, err)
			}
			uptimeSec, err := strconv.ParseInt(fields[6], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("consensus: line %d: uptime: %w", lineNo, err)
			}
			if uptimeSec < 0 || uptimeSec > maxUptimeSec {
				return nil, fmt.Errorf("consensus: line %d: uptime %d s out of [0, %d]", lineNo, uptimeSec, int64(maxUptimeSec))
			}
			rid, err := strconv.ParseInt(fields[7], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("consensus: line %d: relay-id: %w", lineNo, err)
			}
			doc.Entries = append(doc.Entries, Entry{
				Nickname:    fields[1],
				Fingerprint: fp,
				IP:          fields[3],
				ORPort:      orPort,
				Bandwidth:   bw,
				Uptime:      time.Duration(uptimeSec) * time.Second,
				RelayID:     relay.ID(rid),
			})
			cur = &doc.Entries[len(doc.Entries)-1]
		case strings.HasPrefix(line, "s"):
			if cur == nil {
				return nil, fmt.Errorf("consensus: line %d: s line before any r line", lineNo)
			}
			flags, err := parseFlags(strings.Fields(line)[1:])
			if err != nil {
				return nil, fmt.Errorf("consensus: line %d: %w", lineNo, err)
			}
			cur.Flags = flags
			cur = nil
		case strings.TrimSpace(line) == "":
			// skip blank lines
		default:
			return nil, fmt.Errorf("consensus: line %d: unrecognised line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("consensus: scan: %w", err)
	}
	return doc, nil
}

func parseFingerprint(s string) (onion.Fingerprint, error) {
	var fp onion.Fingerprint
	raw, err := hex.DecodeString(strings.ToLower(s))
	if err != nil {
		return fp, fmt.Errorf("fingerprint %q: %w", s, err)
	}
	if len(raw) != len(fp) {
		return fp, fmt.Errorf("fingerprint %q: length %d, want %d", s, len(raw), len(fp))
	}
	copy(fp[:], raw)
	return fp, nil
}

func parseFlags(names []string) (Flag, error) {
	var f Flag
	for _, n := range names {
		switch n {
		case "Fast":
			f |= FlagFast
		case "Guard":
			f |= FlagGuard
		case "HSDir":
			f |= FlagHSDir
		case "Running":
			f |= FlagRunning
		case "Stable":
			f |= FlagStable
		default:
			return 0, fmt.Errorf("unknown flag %q", n)
		}
	}
	return f, nil
}
