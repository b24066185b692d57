package deanon

import (
	"testing"

	"torhs/internal/simnet"
)

func TestRunServiceSideValidation(t *testing.T) {
	net, pop, now := setup(t, 20)
	cfg := DefaultServiceConfig(1)
	cfg.GuardControlFraction = 0
	if _, err := RunServiceSide(net, pop.Services[0], now, cfg); err == nil {
		t.Fatal("zero guard fraction accepted")
	}
	cfg = DefaultServiceConfig(1)
	cfg.Days = 0
	if _, err := RunServiceSide(net, pop.Services[0], now, cfg); err == nil {
		t.Fatal("zero days accepted")
	}
}

func TestServiceSideFullGuardControlSucceedsImmediately(t *testing.T) {
	net, pop, now := setup(t, 21)
	target := pop.WithDescriptor()[0]
	var hostIP string
	net.OnUpload(func(ev simnet.UploadEvent) {
		if ev.Host.Service == target {
			hostIP = ev.Host.IP
		}
	})
	cfg := ServiceConfig{GuardControlFraction: 1.0, Days: 3, Seed: 21}
	rep, err := RunServiceSide(net, target, now, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatal("full guard control failed to deanonymise")
	}
	if rep.DaysToFirstDetection != 0 {
		t.Fatalf("first detection on day %d, want 0", rep.DaysToFirstDetection)
	}
	if hostIP == "" {
		t.Fatal("the target never uploaded")
	}
	if rep.RevealedIP != hostIP {
		t.Fatalf("revealed %q, host IP %q", rep.RevealedIP, hostIP)
	}
}

func TestServiceSidePartialControlEventuallySucceeds(t *testing.T) {
	net, pop, now := setup(t, 22)
	target := pop.WithDescriptor()[0]
	// Each day the upload uses one of 3 guards; with a 1/3 guard share
	// over 60 days, success is overwhelmingly likely — and the paper's
	// point is exactly this waiting game.
	cfg := ServiceConfig{GuardControlFraction: 0.33, Days: 60, Seed: 22}
	rep, err := RunServiceSide(net, target, now, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SignaturesSent == 0 {
		t.Fatal("no signatures sent")
	}
	if !rep.Success {
		t.Fatal("attack never succeeded over 60 days at 33% guard share")
	}
	if rep.DaysToFirstDetection < 0 {
		t.Fatal("success without first-detection day")
	}
}

func TestServiceSideTinyGuardShareUsuallySlower(t *testing.T) {
	netA, popA, nowA := setup(t, 23)
	fast, err := RunServiceSide(netA, popA.WithDescriptor()[0], nowA,
		ServiceConfig{GuardControlFraction: 1.0, Days: 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	netB, popB, nowB := setup(t, 23)
	slow, err := RunServiceSide(netB, popB.WithDescriptor()[0], nowB,
		ServiceConfig{GuardControlFraction: 0.02, Days: 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Success && fast.Success &&
		slow.DaysToFirstDetection < fast.DaysToFirstDetection {
		t.Fatal("2% guard share detected earlier than 100%")
	}
	if len(slow.Detections) >= len(fast.Detections) {
		t.Fatalf("detections: %d at 2%% vs %d at 100%%",
			len(slow.Detections), len(fast.Detections))
	}
}
