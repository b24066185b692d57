// Package consensus models Tor's directory authorities: monitoring
// self-advertised relays, enforcing the two-relays-per-IP consensus rule,
// assigning flags (Fast, Stable, Guard, HSDir), and publishing periodic
// consensus documents into a queryable history archive.
//
// Two behaviours matter for the paper:
//
//  1. Only the two highest-bandwidth relays per IP address enter the
//     consensus ("active" relays); the rest ("shadow" relays) keep running
//     and keep accruing uptime, so their flags reflect their *real* run
//     time the moment they become active. This is the flaw behind the
//     trawling collection (Section II-A).
//  2. The HSDir flag requires ≥ 25 hours of continuous uptime, which both
//     enables the attack and provides the "became HSDir exactly 25 hours
//     after appearing" tracking-detection signal (Section VII).
package consensus

import (
	"sort"
	"strings"
	"sync"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
	"torhs/internal/relay"
)

// Flag is a consensus relay flag bitmask.
type Flag uint8

// Relay flags assigned by the authority.
const (
	FlagRunning Flag = 1 << iota
	FlagFast
	FlagStable
	FlagGuard
	FlagHSDir
)

// Has reports whether all bits in want are set.
func (f Flag) Has(want Flag) bool { return f&want == want }

// String renders the flags in consensus-document order.
func (f Flag) String() string {
	var b strings.Builder
	b.Grow(len("Fast Guard HSDir Running Stable"))
	add := func(s string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s)
	}
	if f.Has(FlagFast) {
		add("Fast")
	}
	if f.Has(FlagGuard) {
		add("Guard")
	}
	if f.Has(FlagHSDir) {
		add("HSDir")
	}
	if f.Has(FlagRunning) {
		add("Running")
	}
	if f.Has(FlagStable) {
		add("Stable")
	}
	return b.String()
}

// Entry is one relay line in a consensus document.
type Entry struct {
	Fingerprint onion.Fingerprint
	RelayID     relay.ID
	Nickname    string
	IP          string
	ORPort      int
	Bandwidth   int
	Flags       Flag
	// Uptime is the authority-observed continuous uptime at publication.
	Uptime time.Duration
}

// Document is a published consensus: the authority's view of the network
// at ValidAfter, entries sorted by fingerprint.
//
// A document is immutable once published (Entries never change after the
// document enters a History), so the flag slices, the fingerprint lookup
// table, and the HSDir ring are computed at most once, lazily, under a
// sync.Once; every accessor below is safe for concurrent use and the
// returned slices and ring alias the cache — callers must not mutate
// them. Documents must not be copied by value after first use.
type Document struct {
	ValidAfter time.Time
	Entries    []Entry

	idxOnce sync.Once
	idx     docIndex
}

// docIndex holds the lazily-built immutable per-document indexes.
type docIndex struct {
	hsdirs  []onion.Fingerprint
	guards  []onion.Fingerprint
	byFP    map[onion.Fingerprint]int32
	ring    *hsdir.Ring
	ringPos map[onion.Fingerprint]int32
	avgGap  onion.RingInt
}

func (d *Document) index() *docIndex {
	d.idxOnce.Do(func() {
		ix := &d.idx
		ix.byFP = make(map[onion.Fingerprint]int32, len(d.Entries))
		for i, e := range d.Entries {
			if _, dup := ix.byFP[e.Fingerprint]; !dup {
				ix.byFP[e.Fingerprint] = int32(i)
			}
			if e.Flags.Has(FlagHSDir) {
				ix.hsdirs = append(ix.hsdirs, e.Fingerprint)
			}
			if e.Flags.Has(FlagGuard) {
				ix.guards = append(ix.guards, e.Fingerprint)
			}
		}
		ix.ring = hsdir.NewRing(ix.hsdirs)
		ix.ringPos = make(map[onion.Fingerprint]int32, ix.ring.Len())
		for i, fp := range ix.ring.Fingerprints() {
			ix.ringPos[fp] = int32(i)
		}
		ix.avgGap = ix.ring.AverageGap()
	})
	return &d.idx
}

// HSDirs returns the fingerprints of all entries carrying the HSDir flag,
// in ring (sorted) order. This is the input to responsible-directory
// selection. The result is cached; callers must not mutate it.
func (d *Document) HSDirs() []onion.Fingerprint { return d.index().hsdirs }

// Guards returns the fingerprints of all entries carrying the Guard flag.
// The result is cached; callers must not mutate it.
func (d *Document) Guards() []onion.Fingerprint { return d.index().guards }

// Ring returns the document's HSDir fingerprint ring, built once and
// shared by every caller analysing this consensus.
func (d *Document) Ring() *hsdir.Ring { return d.index().ring }

// AverageGap returns the cached mean inter-fingerprint gap of the
// document's HSDir ring.
func (d *Document) AverageGap() onion.RingInt { return d.index().avgGap }

// HSDirRingPos returns the position of fingerprint f on the document's
// HSDir ring (the index into Ring().Fingerprints()), if f carries the
// HSDir flag. Consumers that keep per-HSDir state in dense ring-ordered
// arrays — the simnet descriptor directories — resolve fingerprints to
// integer relay handles through this cached table exactly once instead
// of keying their own maps.
func (d *Document) HSDirRingPos(f onion.Fingerprint) (int32, bool) {
	i, ok := d.index().ringPos[f]
	return i, ok
}

// Lookup returns the entry for fingerprint f, if present. The cached
// fingerprint table makes the lookup O(1) and allocation-free.
func (d *Document) Lookup(f onion.Fingerprint) (Entry, bool) {
	if i, ok := d.index().byFP[f]; ok {
		return d.Entries[i], true
	}
	return Entry{}, false
}

// Thresholds parameterise flag assignment.
type Thresholds struct {
	// HSDirUptime is the continuous uptime required for the HSDir flag
	// (25 h on the 2013 network).
	HSDirUptime time.Duration
	// StableUptime is the continuous uptime required for the Stable flag.
	StableUptime time.Duration
	// GuardUptime is the continuous uptime required for the Guard flag.
	GuardUptime time.Duration
	// GuardBandwidth is the minimum bandwidth (KB/s) for the Guard flag.
	GuardBandwidth int
	// FastBandwidth is the minimum bandwidth (KB/s) for the Fast flag.
	FastBandwidth int
	// MaxPerIP is the maximum number of relays per IP admitted to the
	// consensus (2 on the real network).
	MaxPerIP int
}

// DefaultThresholds returns the 2013-network parameters used throughout
// the reproduction.
func DefaultThresholds() Thresholds {
	return Thresholds{
		HSDirUptime:    25 * time.Hour,
		StableUptime:   5 * 24 * time.Hour,
		GuardUptime:    8 * 24 * time.Hour,
		GuardBandwidth: 250,
		FastBandwidth:  100,
		MaxPerIP:       2,
	}
}

// Authority is a (collapsed) set of directory authorities: it monitors
// registered relays and periodically publishes consensus documents.
type Authority struct {
	thresholds Thresholds
	relays     []*relay.Relay
	byID       map[relay.ID]*relay.Relay
}

// NewAuthority creates an authority with the given thresholds.
func NewAuthority(th Thresholds) *Authority {
	return &Authority{
		thresholds: th,
		byID:       make(map[relay.ID]*relay.Relay),
	}
}

// Register adds a self-advertised relay to the authority's watch list.
// Registering the same relay twice is a no-op.
func (a *Authority) Register(r *relay.Relay) {
	if _, ok := a.byID[r.ID()]; ok {
		return
	}
	a.relays = append(a.relays, r)
	a.byID[r.ID()] = r
}

// flagsFor computes the flags a relay earns from its probe status.
func (a *Authority) flagsFor(s relay.Status) Flag {
	f := FlagRunning
	if s.Bandwidth >= a.thresholds.FastBandwidth {
		f |= FlagFast
	}
	if s.Uptime >= a.thresholds.StableUptime {
		f |= FlagStable
	}
	if s.Uptime >= a.thresholds.GuardUptime && s.Bandwidth >= a.thresholds.GuardBandwidth {
		f |= FlagGuard
	}
	if s.Uptime >= a.thresholds.HSDirUptime {
		f |= FlagHSDir
	}
	return f
}

// Publish probes every registered relay and produces the consensus valid
// from now. Per IP address, only the MaxPerIP highest-bandwidth reachable
// relays are admitted (ties broken by fingerprint for determinism); the
// rest are the "shadow relays" of Section II-A.
func (a *Authority) Publish(now time.Time) *Document {
	statuses := make([]relay.Status, 0, len(a.relays))
	for _, r := range a.relays {
		s := r.StatusAt(now)
		if s.Running && s.Reachable {
			statuses = append(statuses, s)
		}
	}

	byIP := make(map[string][]relay.Status, len(statuses))
	for _, s := range statuses {
		byIP[s.IP] = append(byIP[s.IP], s)
	}

	doc := &Document{ValidAfter: now}
	for _, group := range byIP {
		sort.Slice(group, func(i, j int) bool {
			if group[i].Bandwidth != group[j].Bandwidth {
				return group[i].Bandwidth > group[j].Bandwidth
			}
			return group[i].Fingerprint.Less(group[j].Fingerprint)
		})
		n := a.thresholds.MaxPerIP
		if n > len(group) {
			n = len(group)
		}
		for _, s := range group[:n] {
			doc.Entries = append(doc.Entries, Entry{
				Fingerprint: s.Fingerprint,
				RelayID:     s.ID,
				Nickname:    s.Nickname,
				IP:          s.IP,
				ORPort:      s.ORPort,
				Bandwidth:   s.Bandwidth,
				Flags:       a.flagsFor(s),
				Uptime:      s.Uptime,
			})
		}
	}

	sort.Slice(doc.Entries, func(i, j int) bool {
		return doc.Entries[i].Fingerprint.Less(doc.Entries[j].Fingerprint)
	})
	return doc
}
