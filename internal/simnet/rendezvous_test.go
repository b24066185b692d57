package simnet

import (
	"testing"
	"time"

	"torhs/internal/onion"
)

func TestPublishMaterialisesHostsWithIntroPoints(t *testing.T) {
	net, pop, now := buildNetwork(t, 20)
	net.PublishAll(pop, now)

	svc := pop.WithDescriptor()[0]
	host, ok := net.hosts[svc.Address]
	if !ok {
		t.Fatal("no host materialised")
	}
	if host.IP == "" || host.Country == "" {
		t.Fatal("host without location")
	}
	if len(host.intros) != 3 {
		t.Fatalf("intro points = %d, want 3", len(host.intros))
	}
	// Descriptors carry the intro points.
	ids := onion.DescriptorIDs(svc.PermID, now)
	dirFP := net.Ring().Responsible(ids[0], onion.SpreadPerReplica)[0]
	dir, _ := net.Directory(dirFP)
	desc, found := dir.Probe(ids[0], now)
	if !found {
		t.Fatal("descriptor missing")
	}
	if len(desc.IntroPoints) != 3 {
		t.Fatalf("descriptor intro points = %d, want 3", len(desc.IntroPoints))
	}
}

func TestHostStableAcrossRepublish(t *testing.T) {
	net, pop, now := buildNetwork(t, 21)
	svc := pop.WithDescriptor()[0]
	net.PublishService(svc, now)
	h1 := net.hosts[svc.Address]
	net.PublishService(svc, now.Add(24*time.Hour))
	h2 := net.hosts[svc.Address]
	if h1 != h2 {
		t.Fatal("republish created a new host")
	}
}

func TestServiceSignatureAttackTargeted(t *testing.T) {
	net, pop, now := buildNetwork(t, 24)
	target := pop.WithDescriptor()[0]

	// The attacker controls the target's responsible directories and the
	// whole guard pool: the upload must be detected.
	dirs := net.Ring().ResponsibleForServiceAt(target.PermID, now)
	attack := NewServiceSignatureAttack(target.PermID, dirs, net.GuardPool())
	net.OnUpload(attack.ObserveUpload)

	net.PublishAll(pop, now)

	if attack.SignaturesSent() == 0 {
		t.Fatal("no signatures sent on target upload")
	}
	dets := attack.Detections()
	if len(dets) != attack.SignaturesSent() {
		t.Fatal("full guard control must detect every signature")
	}
	host := net.hosts[target.Address]
	deanon := attack.DeanonymisedServices()
	if ip, ok := deanon[target.Address]; !ok || ip != host.IP {
		t.Fatalf("target not deanonymised correctly: %v", deanon)
	}
	// Targeted mode must not flag other services.
	if len(deanon) != 1 {
		t.Fatalf("targeted attack deanonymised %d services", len(deanon))
	}
}

func TestServiceSignatureAttackOpportunistic(t *testing.T) {
	net, pop, now := buildNetwork(t, 25)
	// Opportunistic: zero target, attacker runs ALL directories and all
	// guards — every publishing service is exposed.
	attack := NewServiceSignatureAttack(onion.PermanentID{}, net.Ring().Fingerprints(), net.GuardPool())
	net.OnUpload(attack.ObserveUpload)

	published := net.PublishAll(pop, now)
	deanon := attack.DeanonymisedServices()
	if len(deanon) != published {
		t.Fatalf("deanonymised %d of %d services with full control", len(deanon), published)
	}
}

func TestServiceSignatureAttackPartialGuards(t *testing.T) {
	net, pop, now := buildNetwork(t, 26)
	pool := net.GuardPool()
	attack := NewServiceSignatureAttack(onion.PermanentID{}, net.Ring().Fingerprints(), pool[:len(pool)/10])
	net.OnUpload(attack.ObserveUpload)

	net.PublishAll(pop, now)
	sent := attack.SignaturesSent()
	det := len(attack.Detections())
	if sent == 0 {
		t.Fatal("no signatures")
	}
	if det == 0 || det >= sent {
		t.Fatalf("partial guard control: %d of %d detected", det, sent)
	}
}
