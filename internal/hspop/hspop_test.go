package hspop

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"torhs/internal/corpus"
)

func testPop(t *testing.T) *Population {
	t.Helper()
	pop, err := Generate(context.Background(), TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.Scale = 0
	if _, err := Generate(context.Background(), cfg); err == nil {
		t.Fatal("scale 0 accepted")
	}
	cfg = PaperConfig(1)
	cfg.Scale = 1.5
	if _, err := Generate(context.Background(), cfg); err == nil {
		t.Fatal("scale 1.5 accepted")
	}
	cfg = PaperConfig(1)
	cfg.PhantomRequestFraction = 1.0
	if _, err := Generate(context.Background(), cfg); err == nil {
		t.Fatal("phantom fraction 1.0 accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(context.Background(), TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(context.Background(), TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Services {
		if a.Services[i].Address != b.Services[i].Address {
			t.Fatalf("service %d address differs", i)
		}
		if a.Services[i].ExpectedRequests != b.Services[i].ExpectedRequests {
			t.Fatalf("service %d popularity differs", i)
		}
	}
}

func TestUniqueAddresses(t *testing.T) {
	pop := testPop(t)
	seen := make(map[string]bool, pop.Len())
	for _, s := range pop.Services {
		if seen[string(s.Address)] {
			t.Fatalf("duplicate address %s", s.Address)
		}
		seen[string(s.Address)] = true
		if got, ok := pop.ByAddress(s.Address); !ok || got != s {
			t.Fatalf("ByAddress(%s) broken", s.Address)
		}
	}
}

func TestHeadServicesPresentAndCalibrated(t *testing.T) {
	pop := testPop(t)
	head := TableIIHead()
	for i, e := range head {
		s := pop.Services[i]
		if s.Label != e.Label {
			t.Fatalf("head %d label = %q, want %q", i, s.Label, e.Label)
		}
		if s.Kind != e.Kind {
			t.Fatalf("head %d kind = %v, want %v", i, s.Kind, e.Kind)
		}
		if s.ExpectedRequests != float64(e.Requests) {
			t.Fatalf("head %d rate = %v, want %d", i, s.ExpectedRequests, e.Requests)
		}
		if !s.DescriptorAtScan {
			t.Fatalf("head %d not alive at scan", i)
		}
	}
}

func TestGoldnetFamilyShape(t *testing.T) {
	pop := testPop(t)
	phys := map[int]int{}
	n := 0
	for _, s := range pop.Services {
		if s.Kind == KindGoldnetCC {
			n++
			phys[s.PhysServer]++
			if !s.HasPort(PortHTTP) {
				t.Fatal("Goldnet front without port 80")
			}
		}
	}
	if n != 9 {
		t.Fatalf("Goldnet family size = %d, want 9", n)
	}
	if len(phys) != 2 {
		t.Fatalf("Goldnet physical servers = %d, want 2", len(phys))
	}
}

func TestSkynetClusterShape(t *testing.T) {
	pop := testPop(t)
	cc := 0
	for _, s := range pop.Services {
		if s.Kind == KindSkynetCC {
			cc++
			if s.Ports[PortSkynet] != PortAbnormal {
				t.Fatal("Skynet C&C without abnormal port 55080")
			}
		}
	}
	if cc != 10 {
		t.Fatalf("Skynet C&C count = %d, want 10", cc)
	}
	bots := 0
	for _, s := range pop.Services {
		if s.Kind == KindSkynetBot {
			bots++
		}
	}
	if bots < 100 {
		t.Fatalf("Skynet bots = %d, want scaled thousands", bots)
	}
}

func TestPortMixApproximatesFig1(t *testing.T) {
	pop := testPop(t)
	portCounts := map[int]int{}
	for _, s := range pop.Services {
		if !s.DescriptorAtScan {
			continue
		}
		for p := range s.Ports {
			portCounts[p]++
		}
	}
	// At scale 0.05 the Fig. 1 ordering must hold: 55080 > 80 > 443 ≥ 22.
	if !(portCounts[PortSkynet] > portCounts[PortHTTP]) {
		t.Fatalf("port 55080 (%d) not dominant over 80 (%d)", portCounts[PortSkynet], portCounts[PortHTTP])
	}
	if !(portCounts[PortHTTP] > portCounts[PortHTTPS]) {
		t.Fatalf("port 80 (%d) not above 443 (%d)", portCounts[PortHTTP], portCounts[PortHTTPS])
	}
	// Skynet should be roughly 55-70% of all answering ports.
	total := 0
	for _, n := range portCounts {
		total += n
	}
	frac := float64(portCounts[PortSkynet]) / float64(total)
	if frac < 0.5 || frac > 0.75 {
		t.Fatalf("Skynet port fraction = %.2f, want ~0.63", frac)
	}
}

func TestCertProfilesCover443Owners(t *testing.T) {
	pop := testPop(t)
	profiles := map[CertProfile]int{}
	for _, s := range pop.Services {
		if s.HasPort(PortHTTPS) {
			if s.Cert.Profile == CertNone {
				t.Fatalf("443 owner %s without certificate", s.Address)
			}
			profiles[s.Cert.Profile]++
			if s.Cert.Profile == CertTorHost && s.Cert.CommonName != TorHostCN {
				t.Fatal("TorHost cert with wrong CN")
			}
			if s.Cert.Profile == CertSelfSignedMatch && s.Cert.CommonName != s.Address.String() {
				t.Fatal("matching cert with mismatched CN")
			}
		} else if s.Cert.Profile != CertNone {
			t.Fatalf("service %s has cert but no 443", s.Address)
		}
	}
	if profiles[CertTorHost] == 0 || profiles[CertDNSLeak] == 0 || profiles[CertSelfSignedMismatch] == 0 {
		t.Fatalf("cert profile mix incomplete: %v", profiles)
	}
	// TorHost must dominate, as in the paper (1,168 of ~1,366).
	if profiles[CertTorHost] < profiles[CertSelfSignedMismatch] {
		t.Fatal("TorHost CN not the dominant certificate profile")
	}
}

func TestPageAttributesSane(t *testing.T) {
	pop := testPop(t)
	short, def, errp, subst := 0, 0, 0, 0
	english, other := 0, 0
	for _, s := range pop.Services {
		if s.Page == nil {
			continue
		}
		p := s.Page
		if p.WordCount <= 0 {
			t.Fatalf("page with word count %d", p.WordCount)
		}
		switch {
		case p.TorhostDefault:
			def++
		case p.ErrorPage:
			errp++
		case p.WordCount < 20:
			short++
		default:
			subst++
			if p.Language == corpus.LangEnglish {
				english++
			} else {
				other++
			}
		}
	}
	if short == 0 || def == 0 || errp == 0 || subst == 0 {
		t.Fatalf("page category mix incomplete: short=%d default=%d error=%d subst=%d", short, def, errp, subst)
	}
	engFrac := float64(english) / float64(english+other)
	if engFrac < 0.70 || engFrac > 0.92 {
		t.Fatalf("English fraction = %.2f, want ~0.81", engFrac)
	}
}

func TestPopularityHeadOrderAndTail(t *testing.T) {
	pop := testPop(t)
	popular := pop.PopularServices()
	if len(popular) < 100 {
		t.Fatalf("popular services = %d, want scaled tail", len(popular))
	}
	for i := 1; i < len(popular); i++ {
		if popular[i].ExpectedRequests > popular[i-1].ExpectedRequests {
			t.Fatal("PopularServices not sorted")
		}
	}
	if popular[0].Label != "Goldnet" {
		t.Fatalf("most popular service is %q, want Goldnet", popular[0].Label)
	}
	// Tail rates decay below the last anchor.
	last := popular[len(popular)-1].ExpectedRequests
	if last > 100 {
		t.Fatalf("tail minimum rate = %v, want small", last)
	}
}

func TestTailRateInterpolatesAnchors(t *testing.T) {
	g := &generator{cfg: PaperConfig(1)}
	anchors := headAnchors()
	maxRank := anchors[len(anchors)-1][0]
	// At every anchor rank, the interpolation must reproduce the anchor.
	for _, a := range anchors[1:] {
		got := g.tailRate(a[0], anchors, maxRank)
		if math.Abs(got-float64(a[1]))/float64(a[1]) > 0.01 {
			t.Fatalf("tailRate(%d) = %v, want %d", a[0], got, a[1])
		}
	}
	// Beyond the last anchor, rates decay monotonically.
	r1 := g.tailRate(600, anchors, maxRank)
	r2 := g.tailRate(1200, anchors, maxRank)
	if r1 <= r2 {
		t.Fatalf("tail not decaying: rate(600)=%v rate(1200)=%v", r1, r2)
	}
}

func TestWithDescriptorFiltersDead(t *testing.T) {
	pop := testPop(t)
	alive := pop.WithDescriptor()
	if len(alive) >= pop.Len() {
		t.Fatal("no dead services generated")
	}
	for _, s := range alive {
		if !s.DescriptorAtScan {
			t.Fatal("WithDescriptor returned dead service")
		}
	}
	frac := float64(len(alive)) / float64(pop.Len())
	if frac < 0.5 || frac > 0.75 {
		t.Fatalf("descriptor-available fraction = %.2f, want ~0.62", frac)
	}
}

func TestPageRNGStable(t *testing.T) {
	pop := testPop(t)
	var svc *Service
	for _, s := range pop.Services {
		if s.Page != nil {
			svc = s
			break
		}
	}
	if svc == nil {
		t.Fatal("no page-bearing service")
	}
	// A reseeded RNG, whatever it drew before (Read keeps a partial
	// draw), draws the stream of a fresh source of the page seed.
	r := rand.New(rand.NewSource(99))
	for round := 0; round < 2; round++ {
		r.Read(make([]byte, 3))
		svc.SeedPageRNG(r)
		fresh := rand.New(rand.NewSource(svc.pageSeed()))
		a, b := make([]byte, 5), make([]byte, 5)
		r.Read(a)
		fresh.Read(b)
		if !bytes.Equal(a, b) {
			t.Fatalf("round %d: reseeded page RNG reads %x, a fresh one %x", round, a, b)
		}
		for i := 0; i < 1000; i++ {
			if a, b := r.Int63(), fresh.Int63(); a != b {
				t.Fatalf("round %d, draw %d: reseeded page RNG gives %d, a fresh one %d", round, i, a, b)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindGoldnetCC.String() != "GoldnetCC" {
		t.Fatal("kind name wrong")
	}
	if Kind(99).String() != "Kind(?)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestPhishingClonesSharePrefix(t *testing.T) {
	pop := testPop(t)
	var silkroad *Service
	for _, s := range pop.Services {
		if s.Label == "SilkRoad" {
			silkroad = s
			break
		}
	}
	if silkroad == nil {
		t.Fatal("no SilkRoad service")
	}
	prefix := string(silkroad.Address[:7])
	cluster := 0
	phish, forum := 0, 0
	for _, s := range pop.Services {
		if string(s.Address[:7]) != prefix {
			continue
		}
		cluster++
		switch s.Label {
		case "SilkRoad(phish)":
			phish++
			if s.Key != nil {
				t.Fatal("phishing clone carries key material")
			}
			if !s.DescriptorAtScan || !s.HasPort(PortHTTP) {
				t.Fatal("phishing clone not serving")
			}
		case "SilkRoad(forum)":
			forum++
		}
	}
	// 15 addresses with the prefix, as in the paper: the marketplace,
	// the forum, and 13 clones (minus rare base32 collisions).
	if cluster < 14 || cluster > 16 {
		t.Fatalf("prefix cluster size = %d, want ~15", cluster)
	}
	if forum != 1 || phish < 12 {
		t.Fatalf("forum = %d, phish = %d", forum, phish)
	}
}

func TestMiscPortsAreUncommonAndBounded(t *testing.T) {
	pop := testPop(t)
	named := map[int]bool{
		PortHTTP: true, PortHTTPS: true, PortSSH: true, PortSkynet: true,
		PortTorChat: true, PortIRC: true, Port4050: true,
	}
	perPort := map[int]int{}
	for _, s := range pop.Services {
		if s.Kind != KindMisc {
			continue
		}
		for p := range s.Ports {
			if named[p] {
				t.Fatalf("misc service on named port %d", p)
			}
			perPort[p]++
		}
	}
	for p, n := range perPort {
		if n >= 50 {
			t.Fatalf("misc port %d has %d services; Fig. 1 groups <50 under Other", p, n)
		}
	}
}

// TestArenaChunksCappedAndPointersStable: for a population several
// chunks large, the generator's arenas allocate in blocks of at most
// arenaChunk items and never move an item they handed out, so every
// pointer stays valid.
func TestArenaChunksCappedAndPointersStable(t *testing.T) {
	cfg := PaperConfig(1)
	if est := estimatedServices(cfg); est < 3*arenaChunk {
		t.Fatalf("paper config estimates %d services, want at least %d", est, 3*arenaChunk)
	}
	g := newGenerator(cfg)
	if g.svcArena.chunk != arenaChunk || g.pageArena.chunk != arenaChunk {
		t.Fatalf("arena chunks %d services / %d pages, want %d", g.svcArena.chunk, g.pageArena.chunk, arenaChunk)
	}
	a := g.svcArena
	const n = 2*arenaChunk + 7
	ptrs := make([]*Service, n)
	for i := range ptrs {
		ptrs[i] = a.take()
		ptrs[i].Seq = i
		if c := cap(a.buf); c > arenaChunk {
			t.Fatalf("chunk of %d items exceeds the %d cap", c, arenaChunk)
		}
		if first := i - (len(a.buf) - 1); &a.buf[0] != ptrs[first] {
			t.Fatalf("chunk holding item %d moved when item %d was taken", first, i)
		}
	}
	for i, p := range ptrs {
		if p.Seq != i {
			t.Fatalf("item %d reads %d after later takes", i, p.Seq)
		}
	}
	if len(a.buf) != n%arenaChunk {
		t.Fatalf("last chunk holds %d items, want %d", len(a.buf), n%arenaChunk)
	}
}
