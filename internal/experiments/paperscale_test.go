package experiments

// Paper-scale integration test: regenerates the study at the paper's full
// population size (39,824 services, 1,400 relays, 4,000 clients) and
// checks the headline numbers against the paper's bands. The three
// tests share one study, so the scan that both the scan and the content
// checks read runs once.

import (
	"sync"
	"testing"

	"torhs/internal/hspop"
	"torhs/internal/scenario"
)

var paperScale struct {
	once  sync.Once
	study *Study
	err   error
}

// paperScaleStudy returns the shared paper-scale study, built on first
// use.
func paperScaleStudy(t *testing.T) *Study {
	t.Helper()
	paperScale.once.Do(func() {
		paperScale.study, paperScale.err = NewStudy(ConfigFromSpec(scenario.MustLookup(scenario.PaperScale), 42))
	})
	if paperScale.err != nil {
		t.Fatal(paperScale.err)
	}
	return paperScale.study
}

func within(t *testing.T, name string, got, want, tolerance float64) {
	t.Helper()
	lo, hi := want*(1-tolerance), want*(1+tolerance)
	if got < lo || got > hi {
		t.Errorf("%s = %.0f, want %.0f ± %.0f%%", name, got, want, tolerance*100)
	}
}

func TestPaperScaleScanAndCerts(t *testing.T) {
	s := paperScaleStudy(t)
	sa := artefactOf[*scanArtefact](t, s, ExpScan)
	res, audit := sa.res, sa.audit
	within(t, "addresses", float64(res.TotalAddresses), 39824, 0.02)
	within(t, "with descriptor", float64(res.WithDescriptor), 24511, 0.03)
	within(t, "port 55080", float64(res.OpenPortCount[hspop.PortSkynet]), 13854, 0.10)
	within(t, "port 80", float64(res.OpenPortCount[hspop.PortHTTP]), 4027, 0.10)
	within(t, "port 443", float64(res.OpenPortCount[hspop.PortHTTPS]), 1366, 0.10)
	within(t, "port 22", float64(res.OpenPortCount[hspop.PortSSH]), 1238, 0.10)
	within(t, "unique ports", float64(res.UniquePorts), 495, 0.25)
	within(t, "TorHost CNs", float64(audit.TorHostCN), 1168, 0.12)
	within(t, "DNS leaks", float64(audit.DNSLeaks), 34, 0.40)
}

func TestPaperScaleContentFunnel(t *testing.T) {
	s := paperScaleStudy(t)
	res := artefactOf[*contentArtefact](t, s, ExpContent).res
	within(t, "connected", float64(res.Connected), 6579, 0.10)
	within(t, "port 80 connected", float64(res.ConnectedByPort[hspop.PortHTTP]), 3741, 0.10)
	within(t, "short excluded", float64(res.ExcludedShort), 2348, 0.15)
	within(t, "SSH banners", float64(res.ExcludedSSHBanners), 1092, 0.15)
	within(t, "443 duplicates", float64(res.ExcludedDup443), 1108, 0.25)
	within(t, "classified", float64(res.Classified), 3050, 0.12)
	engFrac := float64(res.EnglishTotal) / float64(res.Classified)
	if engFrac < 0.80 || engFrac > 0.90 {
		t.Errorf("English fraction = %.2f, want ~0.84", engFrac)
	}
	if langs := len(res.LanguageCounts); langs < 15 {
		t.Errorf("languages detected = %d, want ~17", langs)
	}
}

func TestPaperScalePopularityRanking(t *testing.T) {
	s := paperScaleStudy(t)
	res, err := s.RunPopularity()
	if err != nil {
		t.Fatal(err)
	}
	if res.Harvest.CollectedFraction < 0.95 {
		t.Errorf("collection fraction = %.2f, want near-complete", res.Harvest.CollectedFraction)
	}
	unresolved := 1 - float64(res.Resolution.ResolvedRequests)/float64(res.Resolution.TotalRequests)
	if unresolved < 0.7 || unresolved > 0.9 {
		t.Errorf("unresolvable share = %.2f, want ~0.8", unresolved)
	}
	if res.Ranking[0].Label != "Goldnet" {
		t.Errorf("rank 1 = %q, want Goldnet", res.Ranking[0].Label)
	}
	skynet := 0
	for _, e := range res.Ranking[:30] {
		if e.Label == "Skynet" {
			skynet++
		}
	}
	if skynet < 7 {
		t.Errorf("Skynet in top 30 = %d, want ~10", skynet)
	}
	frac := res.Harvest.RequestedPublishedFraction()
	if frac <= 0 || frac > 0.3 {
		t.Errorf("requested/published = %.2f, want ~0.1", frac)
	}
}
