package darknet

import (
	"context"
	"errors"
	"strings"
	"testing"

	"torhs/internal/hspop"
	"torhs/internal/onion"
)

func testFabric(t *testing.T) (*Fabric, *hspop.Population) {
	t.Helper()
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	return New(pop), pop
}

func findService(t *testing.T, pop *hspop.Population, pred func(*hspop.Service) bool) *hspop.Service {
	t.Helper()
	for _, s := range pop.Services {
		if pred(s) {
			return s
		}
	}
	t.Fatal("no service matching predicate")
	return nil
}

func TestProbeUnknownAddress(t *testing.T) {
	f, _ := testFabric(t)
	if got := f.Probe("aaaaaaaaaaaaaaaa", 80, PhaseScan); got != ProbeNoDescriptor {
		t.Fatalf("probe unknown = %v, want no-descriptor", got)
	}
}

func TestProbeDeadService(t *testing.T) {
	f, pop := testFabric(t)
	dead := findService(t, pop, func(s *hspop.Service) bool { return !s.DescriptorAtScan })
	if got := f.Probe(dead.Address, 80, PhaseScan); got != ProbeNoDescriptor {
		t.Fatalf("probe dead = %v, want no-descriptor", got)
	}
}

func TestProbeSkynetAbnormal(t *testing.T) {
	f, pop := testFabric(t)
	bot := findService(t, pop, func(s *hspop.Service) bool {
		return s.Kind == hspop.KindSkynetBot && !s.ScanTimeout
	})
	if got := f.Probe(bot.Address, hspop.PortSkynet, PhaseScan); got != ProbeAbnormal {
		t.Fatalf("probe bot:55080 = %v, want abnormal", got)
	}
	if got := f.Probe(bot.Address, 80, PhaseScan); got != ProbeClosed {
		t.Fatalf("probe bot:80 = %v, want closed", got)
	}
}

func TestProbeTimeout(t *testing.T) {
	f, pop := testFabric(t)
	to := findService(t, pop, func(s *hspop.Service) bool { return s.ScanTimeout })
	if got := f.Probe(to.Address, 80, PhaseScan); got != ProbeTimeout {
		t.Fatalf("probe timeout service = %v, want timeout", got)
	}
}

func TestCrawlPhaseChurn(t *testing.T) {
	f, pop := testFabric(t)
	gone := findService(t, pop, func(s *hspop.Service) bool {
		return s.DescriptorAtScan && !s.OpenAtCrawl && s.HasPort(hspop.PortHTTP) && !s.ScanTimeout
	})
	if got := f.Probe(gone.Address, hspop.PortHTTP, PhaseScan); got != ProbeOpen {
		t.Fatalf("scan-phase probe = %v, want open", got)
	}
	if got := f.Probe(gone.Address, hspop.PortHTTP, PhaseCrawl); got != ProbeNoDescriptor {
		t.Fatalf("crawl-phase probe = %v, want no-descriptor", got)
	}
}

func TestGetGoldnet503WithServerStatus(t *testing.T) {
	f, pop := testFabric(t)
	cc := findService(t, pop, func(s *hspop.Service) bool { return s.Kind == hspop.KindGoldnetCC })
	resp, err := f.Get(cc.Address, hspop.PortHTTP, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 || !resp.ServerStatusAvailable {
		t.Fatalf("goldnet response = %+v, want 503 + server-status", resp)
	}
	ss, err := f.ServerStatusPage(cc.Address, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	if ss.RequestsPerSec != 10 || ss.PostFraction < 0.9 {
		t.Fatalf("server-status = %+v", ss)
	}
}

func TestGoldnetUptimeGroupsByPhysicalServer(t *testing.T) {
	f, pop := testFabric(t)
	uptimes := map[int]map[int64]bool{}
	for _, s := range pop.Services {
		if s.Kind != hspop.KindGoldnetCC {
			continue
		}
		ss, err := f.ServerStatusPage(s.Address, PhaseScan)
		if err != nil {
			t.Fatal(err)
		}
		if uptimes[s.PhysServer] == nil {
			uptimes[s.PhysServer] = map[int64]bool{}
		}
		uptimes[s.PhysServer][ss.UptimeSeconds] = true
	}
	if len(uptimes) != 2 {
		t.Fatalf("physical server groups = %d, want 2", len(uptimes))
	}
	for phys, set := range uptimes {
		if len(set) != 1 {
			t.Fatalf("server %d has %d distinct uptimes, want 1", phys, len(set))
		}
	}
}

func TestServerStatusOnlyOnGoldnet(t *testing.T) {
	f, pop := testFabric(t)
	web := findService(t, pop, func(s *hspop.Service) bool {
		return s.Kind == hspop.KindWeb && s.OpenAtCrawl && !s.ScanTimeout
	})
	if _, err := f.ServerStatusPage(web.Address, PhaseScan); err == nil {
		t.Fatal("server-status on ordinary web service")
	}
}

func TestGetRendersDeterministicBody(t *testing.T) {
	f, pop := testFabric(t)
	web := findService(t, pop, func(s *hspop.Service) bool {
		return s.Kind == hspop.KindWeb && s.Page != nil && !s.Page.TorhostDefault &&
			!s.Page.ErrorPage && s.Page.WordCount >= 50 && !s.ScanTimeout && s.HasPort(hspop.PortHTTP)
	})
	a, err := f.Get(web.Address, hspop.PortHTTP, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Get(web.Address, hspop.PortHTTP, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	if a.Body != b.Body {
		t.Fatal("page body not deterministic")
	}
	if a.StatusCode != 200 || len(a.Body) == 0 {
		t.Fatalf("response = %d, body len %d", a.StatusCode, len(a.Body))
	}
}

func TestDupOn443ServesIdenticalBody(t *testing.T) {
	f, pop := testFabric(t)
	dual := findService(t, pop, func(s *hspop.Service) bool {
		return s.Page != nil && s.Page.DupOn443 && !s.ScanTimeout
	})
	a, err := f.Get(dual.Address, hspop.PortHTTP, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Get(dual.Address, hspop.PortHTTPS, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	if a.Body != b.Body {
		t.Fatal("443 copy differs from port-80 body")
	}
}

func TestGetOnNonHTTPPort(t *testing.T) {
	f, pop := testFabric(t)
	tc := findService(t, pop, func(s *hspop.Service) bool {
		return s.Kind == hspop.KindTorChat && !s.ScanTimeout
	})
	_, err := f.Get(tc.Address, hspop.PortTorChat, PhaseScan)
	if !errors.Is(err, ErrNotHTTP) {
		t.Fatalf("err = %v, want ErrNotHTTP", err)
	}
}

func TestSSHBannerShortAndParsable(t *testing.T) {
	f, pop := testFabric(t)
	ssh := findService(t, pop, func(s *hspop.Service) bool {
		return s.Kind == hspop.KindSSH && s.Page.WordCount < 20 && !s.ScanTimeout
	})
	resp, err := f.Get(ssh.Address, hspop.PortSSH, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Body, "SSH-2.0-") {
		t.Fatalf("banner = %q", resp.Body)
	}
	if len(strings.Fields(resp.Body)) >= 20 {
		t.Fatal("short banner has >= 20 words")
	}
}

func TestTLSCertServed(t *testing.T) {
	f, pop := testFabric(t)
	th := findService(t, pop, func(s *hspop.Service) bool {
		return s.Cert.Profile == hspop.CertTorHost && !s.ScanTimeout
	})
	cert, err := f.TLSCert(th.Address, PhaseScan)
	if err != nil {
		t.Fatal(err)
	}
	if cert.CommonName != hspop.TorHostCN {
		t.Fatalf("CN = %q, want TorHost", cert.CommonName)
	}

	noTLS := findService(t, pop, func(s *hspop.Service) bool {
		return s.Kind == hspop.KindSSH && !s.ScanTimeout
	})
	if _, err := f.TLSCert(noTLS.Address, PhaseScan); !errors.Is(err, ErrNoTLS) {
		t.Fatalf("err = %v, want ErrNoTLS", err)
	}
}

func TestProbeResultString(t *testing.T) {
	for r, want := range map[ProbeResult]string{
		ProbeOpen: "open", ProbeClosed: "closed", ProbeAbnormal: "abnormal",
		ProbeTimeout: "timeout", ProbeNoDescriptor: "no-descriptor", ProbeResult(0): "unknown",
	} {
		if got := r.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", r, got, want)
		}
	}
}

func TestTorhostDefaultPagesIdenticalAcrossServices(t *testing.T) {
	f, pop := testFabric(t)
	var bodies []string
	for _, s := range pop.Services {
		if s.Page != nil && s.Page.TorhostDefault && !s.ScanTimeout && len(s.HTTPPorts) > 0 {
			resp, err := f.Get(s.Address, s.HTTPPorts[0], PhaseScan)
			if err != nil {
				continue
			}
			bodies = append(bodies, resp.Body)
			if len(bodies) == 5 {
				break
			}
		}
	}
	if len(bodies) < 2 {
		t.Skip("not enough torhost services at this scale")
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatal("torhost default pages differ across services")
		}
	}
	var unknownAddr onion.Address = "zzzzzzzzzzzzzzzz"
	if _, err := f.Get(unknownAddr, 80, PhaseScan); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
}
