package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"torhs/internal/corpus"
	"torhs/internal/hspop"
	"torhs/internal/report"
	"torhs/internal/scenario"
)

func newStudy(t *testing.T, seed int64) *Study {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.03
	cfg.Clients = 400
	cfg.TrawlIPs = 20
	cfg.TrawlSteps = 5
	cfg.Relays = 300
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// artefactOf runs the named experiment, and what it needs, on s and
// returns its artefact.
func artefactOf[T Artefact](t *testing.T, s *Study, name string) T {
	t.Helper()
	a, err := paperRegistry.artefact(context.Background(), s.env, name)
	if err != nil {
		t.Fatal(err)
	}
	return a.(T)
}

// sectionText text-encodes sections the way the study prints them.
func sectionText(t *testing.T, sections ...*report.Section) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.EncodeText(&buf, report.New("", sections...)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestNewStudyValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"overscale", func(c *Config) { c.Scale = 1.5 }},
		{"no clients", func(c *Config) { c.Clients = 0 }},
		{"no fleet", func(c *Config) { c.TrawlIPs = 0 }},
		{"no trawl steps", func(c *Config) { c.TrawlSteps = 0 }},
		{"no relays", func(c *Config) { c.Relays = 0 }},
		{"negative bot factor", func(c *Config) { c.BotFactor = -1 }},
		{"negative tracking days", func(c *Config) { c.TrackingDays = -1 }},
		{"negative popularity topN", func(c *Config) { c.PopularityTopN = -1 }},
	} {
		cfg := DefaultConfig(1)
		tc.mutate(&cfg)
		if _, err := NewStudy(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// Every preset is a valid study configuration.
	for _, sp := range scenario.Presets() {
		if _, err := NewEnv(ConfigFromSpec(sp, 1)); err != nil {
			t.Errorf("preset %q: %v", sp.Name, err)
		}
	}
}

func TestE1ScanShape(t *testing.T) {
	s := newStudy(t, 1)
	sa := artefactOf[*scanArtefact](t, s, ExpScan)
	res, audit := sa.res, sa.audit
	rows := res.Fig1(50)
	if rows[0].Label != "55080-Skynet" {
		t.Fatalf("dominant port = %s, want Skynet", rows[0].Label)
	}
	if audit.TorHostCN == 0 || audit.DNSLeaks == 0 {
		t.Fatalf("cert audit incomplete: %+v", audit)
	}

	text := sectionText(t, Fig1Section(res), CertAuditSection(audit))
	for _, want := range []string{"Fig. 1", "55080-Skynet", "other", "TorHost CN"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestE3E5ContentShape(t *testing.T) {
	s := newStudy(t, 2)
	res := artefactOf[*contentArtefact](t, s, ExpContent).res
	if res.Classified == 0 || res.EnglishTotal == 0 {
		t.Fatalf("empty content result: %+v", res)
	}
	pct := res.TopicPercentages()
	if pct[corpus.TopicAdult]+pct[corpus.TopicDrugs] < 20 {
		t.Fatalf("Adult+Drugs = %d%%, want dominant", pct[corpus.TopicAdult]+pct[corpus.TopicDrugs])
	}

	text := sectionText(t, TableISection(res), LanguagesSection(res), Fig2Section(res))
	for _, want := range []string{"Table I", "Other", "language mix", "Fig. 2", "Adult"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestE6PopularityShape(t *testing.T) {
	s := newStudy(t, 3)
	res, err := s.RunPopularity()
	if err != nil {
		t.Fatal(err)
	}
	if res.Harvest.CollectedFraction < 0.8 {
		t.Fatalf("collected %.2f of population", res.Harvest.CollectedFraction)
	}
	if res.Resolution.ResolvedAddresses == 0 {
		t.Fatal("nothing resolved")
	}
	// Unresolvable share ≈ 80% as in the paper.
	unresolved := float64(res.Resolution.TotalRequests-res.Resolution.ResolvedRequests) /
		float64(res.Resolution.TotalRequests)
	if unresolved < 0.6 || unresolved > 0.95 {
		t.Fatalf("unresolved share = %.2f, want ~0.8", unresolved)
	}
	// Table II shape: Goldnet tops the ranking; Skynet cluster in the
	// upper ranks; Silk Road present.
	if res.Ranking[0].Label != "Goldnet" {
		t.Fatalf("rank 1 label = %q, want Goldnet", res.Ranking[0].Label)
	}
	foundSilkRoad := false
	skynetTop30 := 0
	for _, e := range res.Ranking {
		if e.Label == "SilkRoad" {
			foundSilkRoad = true
			if e.Rank < 5 || e.Rank > 40 {
				t.Fatalf("SilkRoad rank = %d, want mid-top (paper: 18)", e.Rank)
			}
		}
		if e.Rank <= 30 && e.Label == "Skynet" {
			skynetTop30++
		}
	}
	if !foundSilkRoad {
		t.Fatal("SilkRoad missing from ranking")
	}
	if skynetTop30 < 5 {
		t.Fatalf("Skynet services in top 30 = %d, want ~10", skynetTop30)
	}

	text := sectionText(t, TableIISection(res, 30))
	for _, want := range []string{"Table II", "Goldnet", "SilkRoad"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestE7DeanonShape(t *testing.T) {
	s := newStudy(t, 4)
	rep := artefactOf[*deanonArtefact](t, s, ExpDeanon).rep
	if rep.SignaturesSent == 0 || len(rep.Detections) == 0 {
		t.Fatalf("deanon produced nothing: %+v", rep)
	}
	if len(rep.MapPoints()) < 3 {
		t.Fatal("client map too narrow")
	}
	text := sectionText(t, Fig3Section(rep))
	if !strings.Contains(text, "Fig. 3") {
		t.Fatal("render missing header")
	}
}

func TestServiceDeanonShape(t *testing.T) {
	s := newStudy(t, 7)
	rep := artefactOf[*serviceDeanonArtefact](t, s, ExpServiceDeanon).rep
	if rep.SignaturesSent == 0 {
		t.Fatal("no upload signatures observed")
	}
	if rep.Success && rep.RevealedIP == "" {
		t.Fatal("success without revealed IP")
	}
	text := sectionText(t, ServiceDeanonSection(rep))
	if !strings.Contains(text, "Section II-B") {
		t.Fatal("render missing header")
	}
}

func TestE8TrackingShape(t *testing.T) {
	s := newStudy(t, 5)
	res := artefactOf[*trackingArtefact](t, s, ExpTracking).res
	if len(res.Report.Suspicious) < 10 {
		t.Fatalf("suspicious relays = %d, want the planted trackers", len(res.Report.Suspicious))
	}
	full := false
	for _, ep := range res.Report.Episodes {
		if ep.FullTakeover {
			full = true
		}
	}
	if !full {
		t.Fatal("full takeover episode not detected")
	}
	text := sectionText(t, TrackingSection(res))
	for _, want := range []string{"Section VII", "FULL TAKEOVER", "tracknet"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestPrefixAuditFindsSilkroadCluster(t *testing.T) {
	s := newStudy(t, 9)
	ctx := context.Background()
	if _, err := s.env.runPrefixAudit(ctx, 0, 3); err == nil {
		t.Fatal("prefix length 0 accepted")
	}
	if _, err := s.env.runPrefixAudit(ctx, 7, 1); err == nil {
		t.Fatal("cluster size 1 accepted")
	}
	clusters := artefactOf[*prefixArtefact](t, s, ExpPrefixAudit).clusters
	if len(clusters) == 0 {
		t.Fatal("no prefix clusters found")
	}
	top := clusters[0]
	if len(top.Addresses) < 14 {
		t.Fatalf("largest cluster = %d addresses, want ~15", len(top.Addresses))
	}
	hasOfficial, hasPhish := false, false
	for _, l := range top.Labels {
		if l == "SilkRoad" {
			hasOfficial = true
		}
		if l == "SilkRoad(phish)" {
			hasPhish = true
		}
	}
	if !hasOfficial || !hasPhish {
		t.Fatalf("cluster labels incomplete: %v", top.Labels)
	}
	text := sectionText(t, PrefixAuditSection(clusters))
	if !strings.Contains(text, "Vanity-prefix") {
		t.Fatal("render missing header")
	}
}

func TestCollectionComparisonShape(t *testing.T) {
	s := newStudy(t, 8)
	c, err := s.RunCollectionComparison()
	if err != nil {
		t.Fatal(err)
	}
	if c.CrawlDiscovered == 0 || c.TrawlCollected == 0 {
		t.Fatalf("empty comparison: %+v", c)
	}
	// The paper's motivating gap: crawling covers a few percent,
	// trawling nearly everything.
	if c.CrawlFraction >= 0.3 {
		t.Fatalf("crawl fraction = %.2f, want small", c.CrawlFraction)
	}
	if c.TrawlFraction <= 2*c.CrawlFraction {
		t.Fatalf("trawl (%.2f) not decisively above crawl (%.2f)",
			c.TrawlFraction, c.CrawlFraction)
	}
	text := sectionText(t, CollectionSection(c))
	if !strings.Contains(text, "Collection methods") {
		t.Fatal("render missing header")
	}
}

func TestStudyExposesPopulation(t *testing.T) {
	s := newStudy(t, 6)
	if s.Population() == nil {
		t.Fatal("accessor broken")
	}
	goldnet := 0
	for _, svc := range s.Population().Services {
		if svc.Kind == hspop.KindGoldnetCC {
			goldnet++
		}
	}
	if goldnet != 9 {
		t.Fatal("population malformed")
	}
}
