package relay

import (
	"math/rand"
	"testing"
	"time"

	"torhs/internal/onion"
)

func newTestRelay(t *testing.T) (*Relay, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	r := New(Config{ID: 1, Nickname: "test", IP: "10.0.0.1", ORPort: 9001, Bandwidth: 500}, rng)
	return r, rng
}

func at(h int) time.Time {
	return time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func TestNewRelayIsDown(t *testing.T) {
	r, _ := newTestRelay(t)
	s := r.StatusAt(at(0))
	if s.Running || s.Reachable {
		t.Fatal("new relay reports running/reachable")
	}
	if s.Uptime != 0 {
		t.Fatalf("new relay uptime = %v, want 0", s.Uptime)
	}
}

func TestStartAccruesUptime(t *testing.T) {
	r, _ := newTestRelay(t)
	r.Start(at(0))
	s := r.StatusAt(at(26))
	if !s.Running || !s.Reachable {
		t.Fatal("started relay not running/reachable")
	}
	if want := 26 * time.Hour; s.Uptime != want {
		t.Fatalf("uptime = %v, want %v", s.Uptime, want)
	}
}

func TestDoubleStartKeepsUpSince(t *testing.T) {
	r, _ := newTestRelay(t)
	r.Start(at(0))
	r.Start(at(10)) // no-op
	if got := r.StatusAt(at(20)).Uptime; got != 20*time.Hour {
		t.Fatalf("uptime = %v, want 20h", got)
	}
}

func TestStopResetsUptime(t *testing.T) {
	r, _ := newTestRelay(t)
	r.Start(at(0))
	r.Stop()
	if got := r.StatusAt(at(30)).Uptime; got != 0 {
		t.Fatalf("uptime after stop = %v, want 0", got)
	}
}

func TestRestartResetsUptime(t *testing.T) {
	r, _ := newTestRelay(t)
	r.Start(at(0))
	r.Stop()
	r.Start(at(20))
	if got := r.StatusAt(at(30)).Uptime; got != 10*time.Hour {
		t.Fatalf("uptime after restart = %v, want 10h", got)
	}
}

func TestSetReachableDoesNotResetUptime(t *testing.T) {
	r, _ := newTestRelay(t)
	r.Start(at(0))
	r.SetReachable(false)
	s := r.StatusAt(at(30))
	if s.Reachable {
		t.Fatal("relay still reachable")
	}
	if !s.Running {
		t.Fatal("unreachable relay stopped running")
	}
	if s.Uptime != 30*time.Hour {
		t.Fatalf("uptime = %v, want 30h", s.Uptime)
	}
	r.SetReachable(true)
	if !r.StatusAt(at(31)).Reachable {
		t.Fatal("relay not reachable after re-enable")
	}
}

func TestSetReachableIgnoredWhenDown(t *testing.T) {
	r, _ := newTestRelay(t)
	r.SetReachable(true)
	if r.StatusAt(at(0)).Reachable {
		t.Fatal("stopped relay became reachable")
	}
}

func TestSwitchFingerprintChangesIdentityAndResetsUptime(t *testing.T) {
	r, rng := newTestRelay(t)
	r.Start(at(0))
	old := r.Fingerprint()
	nw := onion.RandomFingerprint(rng)
	r.AdoptMinedFingerprint(nw, at(30))
	if nw == old {
		t.Fatal("new fingerprint equals the old one")
	}
	if got := r.Fingerprint(); got != nw {
		t.Fatal("Fingerprint() does not reflect switch")
	}
	if got := r.StatusAt(at(40)).Uptime; got != 10*time.Hour {
		t.Fatalf("uptime after switch = %v, want 10h", got)
	}
}

func TestSwitchFingerprintWhileDownDoesNotStartClock(t *testing.T) {
	r, rng := newTestRelay(t)
	r.AdoptMinedFingerprint(onion.RandomFingerprint(rng), at(5))
	if got := r.StatusAt(at(10)).Uptime; got != 0 {
		t.Fatalf("uptime = %v, want 0 for stopped relay", got)
	}
}
