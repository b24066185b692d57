package simnet

import (
	"sync"
	"time"

	"torhs/internal/onion"
)

// SignatureAttack implements the Section VI opportunistic client
// deanonymisation: a malicious responsible HSDir wraps descriptor
// responses for a target service in a recognisable traffic signature;
// whenever the requesting client's entry guard happens to be
// attacker-controlled, the guard sees the signature and learns the
// client's IP address.
type SignatureAttack struct {
	mu sync.Mutex

	target onion.PermanentID
	// targetIDs memoises the target's descriptor IDs per time period.
	targetIDs      map[uint32][onion.Replicas]onion.DescriptorID
	attackerDirs   map[onion.Fingerprint]bool
	attackerGuards map[onion.Fingerprint]bool

	signaturesSent int
	detections     []Detection
	// countryHist caches the per-country detection tally, built on first
	// CountryHistogram call and invalidated whenever a detection is
	// appended, so renderers that query the histogram repeatedly never
	// rescan the detection list.
	countryHist map[string]int
}

// Detection is one deanonymised client observation.
type Detection struct {
	ClientID int
	IP       string
	Country  string
	At       time.Time
	Guard    onion.Fingerprint
}

// NewSignatureAttack targets the service with permanent ID target, with
// the attacker controlling the given directories and guards.
func NewSignatureAttack(target onion.PermanentID, dirs, guards []onion.Fingerprint) *SignatureAttack {
	a := &SignatureAttack{
		target:         target,
		targetIDs:      make(map[uint32][onion.Replicas]onion.DescriptorID),
		attackerDirs:   make(map[onion.Fingerprint]bool, len(dirs)),
		attackerGuards: make(map[onion.Fingerprint]bool, len(guards)),
	}
	for _, d := range dirs {
		a.attackerDirs[d] = true
	}
	for _, g := range guards {
		a.attackerGuards[g] = true
	}
	return a
}

// Observe inspects one fetch event. If the fetch is for the target's
// descriptor, hits an attacker directory, and transits an attacker guard,
// the client is deanonymised.
func (a *SignatureAttack) Observe(ev FetchEvent) {
	if !a.attackerDirs[ev.Dir] {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.isTargetIDLocked(ev.DescID, ev.At) {
		return
	}
	a.signaturesSent++
	if !a.attackerGuards[ev.Guard] {
		return
	}
	a.detections = append(a.detections, Detection{
		ClientID: ev.Client.ID,
		IP:       ev.Client.IP,
		Country:  ev.Client.Country,
		At:       ev.At,
		Guard:    ev.Guard,
	})
	a.countryHist = nil // invalidate the cached histogram
}

// isTargetIDLocked reports whether id is one of the target's descriptor
// IDs in the period containing at or an adjacent one: clients with
// skewed clocks may request yesterday's or tomorrow's ID, and the
// attacker recognises the service's IDs over that window. Callers hold
// a.mu.
func (a *SignatureAttack) isTargetIDLocked(id onion.DescriptorID, at time.Time) bool {
	p := onion.TimePeriod(a.target, at)
	for _, q := range [...]uint32{p, p - 1, p + 1} {
		ids, ok := a.targetIDs[q]
		if !ok {
			for r := range ids {
				ids[r] = onion.DescriptorIDForPeriod(a.target, q, uint8(r))
			}
			a.targetIDs[q] = ids
		}
		for _, c := range ids {
			if c == id {
				return true
			}
		}
	}
	return false
}

// SignaturesSent returns how many signature-wrapped responses left
// attacker directories.
func (a *SignatureAttack) SignaturesSent() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.signaturesSent
}

// Detections returns a copy of all deanonymised client observations.
func (a *SignatureAttack) Detections() []Detection {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Detection, len(a.detections))
	copy(out, a.detections)
	return out
}

// CountryHistogram aggregates detections by country — the data behind the
// paper's Fig. 3 world map. The tally is cached across calls and rebuilt
// only after new detections; the returned map is a copy the caller may
// keep or mutate.
func (a *SignatureAttack) CountryHistogram() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.countryHist == nil {
		a.countryHist = make(map[string]int)
		for _, d := range a.detections {
			a.countryHist[d.Country]++
		}
	}
	out := make(map[string]int, len(a.countryHist))
	for c, n := range a.countryHist {
		out[c] = n
	}
	return out
}

// UniqueClients returns how many distinct clients were deanonymised.
func (a *SignatureAttack) UniqueClients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := make(map[int]bool, len(a.detections))
	for _, d := range a.detections {
		seen[d.ClientID] = true
	}
	return len(seen)
}
