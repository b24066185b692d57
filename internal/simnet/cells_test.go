package simnet

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

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

func TestCellLevelAttackEndToEnd(t *testing.T) {
	net, pop, now := buildNetwork(t, 30)
	net.PublishAll(pop, now)

	target := pop.Services[0]
	dirs := net.Ring().ResponsibleForServiceAt(target.PermID, now)
	attack := NewSignatureAttack(target.PermID, dirs, net.GuardPool())
	attack.EnableCellLevel(30)

	net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, attack.Observe)

	if attack.SignaturesSent() == 0 {
		t.Fatal("no signatures sent")
	}
	misses, fps := attack.CellStats()
	// The burst pattern is unambiguous: no misses, and the watched
	// unmarked traffic produces (essentially) no false positives.
	if misses != 0 {
		t.Fatalf("cell detector missed %d marked circuits", misses)
	}
	if fps > attack.SignaturesSent()/100+1 {
		t.Fatalf("false positives = %d", fps)
	}
	if len(attack.Detections()) != attack.SignaturesSent() {
		t.Fatalf("detections %d != signatures %d under full guard control",
			len(attack.Detections()), attack.SignaturesSent())
	}
}
