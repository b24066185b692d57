// Package relay models Tor relays as the directory authorities see them:
// an identity fingerprint, a network location, self-advertised bandwidth,
// and an uptime history. Relays can stop, become unreachable, and —
// crucially for the paper's Section VII — adopt a mined fingerprint,
// which is how trackers reposition themselves on the HSDir ring.
package relay

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"torhs/internal/onion"
)

// ID is a stable instance identifier for bookkeeping across fingerprint
// switches. A tracker that rotates keys keeps its ID, which lets tests and
// analyses ask "was this the same physical server?" — exactly the question
// the paper answers via shared nicknames and IP addresses.
type ID int64

// Relay is a mutable relay instance. All methods are safe for concurrent
// use.
type Relay struct {
	mu sync.Mutex

	id       ID
	nickname string
	ip       string
	orPort   int

	fingerprint onion.Fingerprint

	bandwidth int // self-advertised bandwidth, KB/s

	running   bool
	reachable bool
	upSince   time.Time // start of the current continuous run (zero if down)
}

// Config describes a new relay.
type Config struct {
	ID        ID
	Nickname  string
	IP        string
	ORPort    int
	Bandwidth int
}

// New creates a stopped relay with a fresh identity drawn from rng.
func New(cfg Config, rng *rand.Rand) *Relay {
	return &Relay{
		id:          cfg.ID,
		nickname:    cfg.Nickname,
		ip:          cfg.IP,
		orPort:      cfg.ORPort,
		fingerprint: onion.FingerprintFromKey(onion.GenerateKey(rng)),
		bandwidth:   cfg.Bandwidth,
	}
}

// ID returns the stable instance identifier.
func (r *Relay) ID() ID { return r.id }

// State reports whether the relay process is up and whether directory
// authorities can reach it, under one lock: the cheap check an authority
// makes before it probes the relay.
func (r *Relay) State() (running, reachable bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running, r.reachable
}

// Fingerprint returns the current identity fingerprint.
func (r *Relay) Fingerprint() onion.Fingerprint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fingerprint
}

// Start brings the relay up (running and reachable) at instant now. A
// relay that is already running keeps its original upSince.
func (r *Relay) Start(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.reachable = true
	r.upSince = now
}

// Stop takes the relay down at instant now, resetting its continuous-run
// accounting.
func (r *Relay) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running = false
	r.reachable = false
	r.upSince = time.Time{}
}

// SetReachable toggles whether directory authorities can reach the relay.
// The shadowing attack works by making *active* relays unreachable so that
// shadow relays (same IP, lower bandwidth) take their consensus slots.
// Unreachability does not reset uptime accounting: the process keeps
// running.
func (r *Relay) SetReachable(v bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		r.reachable = v
	}
}

// AdoptMinedFingerprint installs an identity whose fingerprint is exactly
// fp, modelling the result of the key-mining a real tracker performs to
// position itself on the ring (brute-forcing RSA keys until the SHA-1
// digest lands just after a target descriptor ID). Uptime restarts, as
// with any identity switch.
func (r *Relay) AdoptMinedFingerprint(fp onion.Fingerprint, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fingerprint = fp
	if r.running {
		r.upSince = now
	}
}

// Status is an immutable snapshot of the relay as the authority probes it.
type Status struct {
	ID          ID
	Nickname    string
	IP          string
	ORPort      int
	Fingerprint onion.Fingerprint
	Bandwidth   int
	Running     bool
	Reachable   bool
	// Uptime is the continuous run time under the current identity as of
	// the probe instant (zero when down).
	Uptime time.Duration
}

// StatusAt snapshots the relay at instant now.
func (r *Relay) StatusAt(now time.Time) Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Status{
		ID:          r.id,
		Nickname:    r.nickname,
		IP:          r.ip,
		ORPort:      r.orPort,
		Fingerprint: r.fingerprint,
		Bandwidth:   r.bandwidth,
		Running:     r.running,
		Reachable:   r.reachable,
	}
	if r.running && !r.upSince.IsZero() {
		s.Uptime = now.Sub(r.upSince)
	}
	return s
}

// String implements fmt.Stringer for debugging.
func (r *Relay) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("relay %s(%s:%d %s)", r.nickname, r.ip, r.orPort, r.fingerprint.Hex()[:8])
}
