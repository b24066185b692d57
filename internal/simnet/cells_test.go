package simnet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"torhs/internal/onion"
)

// The cell-level model below is the oracle for SignatureAttack's boolean
// detector: instead of being told which responses an attacker directory
// marked, an attacker guard synthesises the cell counts of every circuit
// through it and runs a burst detector on them (the mechanism of [8]).
// The tests check that the two agree.

func TestSignatureAlwaysDetectedAfterInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		trace := InjectSignature(NormalFetchTrace(rng))
		if !DetectSignature(trace) {
			t.Fatalf("injected signature missed in trace %v", trace)
		}
	}
}

func TestSignatureNotInNormalTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		if trace := NormalFetchTrace(rng); DetectSignature(trace) {
			t.Fatalf("signature detected in normal trace %v", trace)
		}
	}
}

func TestDetectSignatureNeedsBothBursts(t *testing.T) {
	cases := []struct {
		name  string
		trace CellTrace
		want  bool
	}{
		{"exact pattern", CellTrace{50, 0, 50}, true},
		{"embedded", CellTrace{3, 4, 50, 2, 55, 1}, true},
		{"single burst", CellTrace{50, 0, 3}, false},
		{"no gap", CellTrace{50, 50, 50}, false},
		{"too short", CellTrace{50, 0}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := DetectSignature(tc.trace); got != tc.want {
				t.Fatalf("DetectSignature(%v) = %v, want %v", tc.trace, got, tc.want)
			}
		})
	}
}

func TestInjectSignatureDoesNotMutateInput(t *testing.T) {
	base := CellTrace{1, 2, 3}
	out := InjectSignature(base)
	if len(base) != 3 {
		t.Fatal("input mutated")
	}
	if len(out) != 6 {
		t.Fatalf("output length = %d, want 6", len(out))
	}
}

// Cells model traffic at the cell level. Tor moves data in
// fixed-size 512-byte cells; the attack of [8] (adapted to clients in the
// paper's Section VI) marks a descriptor response with a distinctive
// burst pattern of padding cells that an attacker-controlled guard can
// recognise in the cell counts of a circuit, without decrypting anything.

// CellTrace is the number of cells observed on one circuit per fixed time
// bin, as counted by the entry guard.
type CellTrace []int

// signatureBurst is the marker burst size. Ordinary descriptor fetches
// move a handful of cells per bin; a 50-cell burst never occurs
// organically (cf. the 50-padding-cell signature of [8]).
const signatureBurst = 50

// AttackSignature returns the injected marker pattern: two large bursts
// separated by a one-bin gap, which makes accidental matches on bulk
// traffic even less likely.
func AttackSignature() CellTrace {
	return CellTrace{signatureBurst, 0, signatureBurst}
}

// NormalFetchTrace synthesises the guard-observed cell counts of an
// ordinary descriptor fetch: a few small request/response bins.
func NormalFetchTrace(rng *rand.Rand) CellTrace {
	bins := 4 + rng.Intn(5)
	trace := make(CellTrace, bins)
	for i := range trace {
		trace[i] = 1 + rng.Intn(8)
	}
	return trace
}

// InjectSignature appends the marker pattern to a trace, as the malicious
// directory does when answering the descriptor request.
func InjectSignature(trace CellTrace) CellTrace {
	out := make(CellTrace, 0, len(trace)+3)
	out = append(out, trace...)
	out = append(out, AttackSignature()...)
	return out
}

// DetectSignature reports whether the marker pattern occurs in the trace:
// two bins of at least the burst size separated by exactly one quiet bin.
func DetectSignature(trace CellTrace) bool {
	for i := 0; i+2 < len(trace); i++ {
		if trace[i] >= signatureBurst &&
			trace[i+1] < signatureBurst/4 &&
			trace[i+2] >= signatureBurst {
			return true
		}
	}
	return false
}

// cellWatch runs the cell-level model beside a SignatureAttack: every
// fetch through an attacker guard yields a cell trace, marked when an
// attacker directory answered a target descriptor request, and the
// burst detector reads it.
type cellWatch struct {
	attack *SignatureAttack
	rng    *rand.Rand
	// detected and misses count marked circuits the detector found and
	// missed; falsePositives counts unmarked circuits it flagged.
	detected, misses, falsePositives int
}

func newCellWatch(attack *SignatureAttack, seed int64) *cellWatch {
	return &cellWatch{attack: attack, rng: rand.New(rand.NewSource(seed))}
}

// Observe feeds ev to the attack and to the cell-level model. DriveWindow
// replays events in plan order on one goroutine.
func (w *cellWatch) Observe(ev FetchEvent) {
	w.attack.Observe(ev)
	if !w.attack.attackerGuards[ev.Guard] {
		return
	}
	if !w.attack.attackerDirs[ev.Dir] {
		if DetectSignature(NormalFetchTrace(w.rng)) {
			w.falsePositives++
		}
		return
	}
	w.attack.mu.Lock()
	marked := w.attack.isTargetIDLocked(ev.DescID, ev.At)
	w.attack.mu.Unlock()
	if !marked {
		return
	}
	if DetectSignature(InjectSignature(NormalFetchTrace(w.rng))) {
		w.detected++
	} else {
		w.misses++
	}
}

func TestCellLevelAttackEndToEnd(t *testing.T) {
	net, pop, now := buildNetwork(t, 30)
	net.PublishAll(pop, now)

	target := pop.Services[0]
	dirs := net.Ring().ResponsibleForServiceAt(target.PermID, now)
	attack := NewSignatureAttack(target.PermID, dirs, net.GuardPool())
	watch := newCellWatch(attack, 30)

	if _, err := net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, watch.Observe); err != nil {
		t.Fatal(err)
	}

	if attack.SignaturesSent() == 0 {
		t.Fatal("no signatures sent")
	}
	// The burst pattern is unambiguous: no misses, and the watched
	// unmarked traffic produces (essentially) no false positives.
	if watch.misses != 0 {
		t.Fatalf("cell detector missed %d marked circuits", watch.misses)
	}
	if watch.falsePositives > attack.SignaturesSent()/100+1 {
		t.Fatalf("false positives = %d", watch.falsePositives)
	}
	if len(attack.Detections()) != attack.SignaturesSent() {
		t.Fatalf("detections %d != signatures %d under full guard control",
			len(attack.Detections()), attack.SignaturesSent())
	}
	if watch.detected != len(attack.Detections()) {
		t.Fatalf("cell detector found %d marked circuits, boolean detector %d", watch.detected, len(attack.Detections()))
	}
}

// TestCellLevelCampaignMatchesBooleanMode runs one campaign twice over
// the same traffic, with an attacker holding 30% of the guards: once with
// the boolean detector alone, once watched by the cell-level model. Both
// see the same signatures and detections, and the cell detector finds
// every marked circuit the boolean one does.
func TestCellLevelCampaignMatchesBooleanMode(t *testing.T) {
	run := func(watched bool) (*SignatureAttack, *cellWatch) {
		net, pop, now := buildNetwork(t, 30)
		net.PublishAll(pop, now)
		target := pop.Services[0]
		var dirs []onion.Fingerprint
		for _, off := range []time.Duration{-24 * time.Hour, 0, 24 * time.Hour} {
			dirs = append(dirs, net.Ring().ResponsibleForServiceAt(target.PermID, now.Add(off))...)
		}
		pool := append([]onion.Fingerprint(nil), net.GuardPool()...)
		rng := rand.New(rand.NewSource(30))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		attack := NewSignatureAttack(target.PermID, dirs, pool[:int(float64(len(pool))*0.3)])
		observe, watch := attack.Observe, newCellWatch(attack, 30)
		if watched {
			observe = watch.Observe
		}
		if _, err := net.DriveWindow(context.Background(), pop, now, 2*time.Hour, observe); err != nil {
			t.Fatal(err)
		}
		return attack, watch
	}
	plain, _ := run(false)
	cell, watch := run(true)
	if plain.SignaturesSent() == 0 || len(plain.Detections()) == 0 {
		t.Fatal("campaign detected nothing to compare")
	}
	if cell.SignaturesSent() != plain.SignaturesSent() {
		t.Fatalf("signatures differ: %d vs %d", cell.SignaturesSent(), plain.SignaturesSent())
	}
	if len(cell.Detections()) != len(plain.Detections()) || watch.detected != len(plain.Detections()) {
		t.Fatalf("detections differ: boolean %d, watched %d, cell detector %d",
			len(plain.Detections()), len(cell.Detections()), watch.detected)
	}
	if watch.misses != 0 {
		t.Fatalf("cell detector missed %d circuits", watch.misses)
	}
	if watch.falsePositives > cell.SignaturesSent()/50+1 {
		t.Fatalf("false positives = %d", watch.falsePositives)
	}
}
