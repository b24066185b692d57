package webcrawl

import (
	"context"
	"testing"

	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

func setupCrawl(t *testing.T, seed int64) (*Crawler, *hspop.Population, []onion.Address) {
	t.Helper()
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)
	c, err := New(fabric, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var seeds []onion.Address
	for _, s := range pop.Services {
		switch s.Label {
		case "TorDir", "Onion Bookmarks", "SilkRoad(wiki)", "Tor Host":
			seeds = append(seeds, s.Address)
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no directory seeds in population")
	}
	return c, pop, seeds
}

func TestNewValidation(t *testing.T) {
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)
	cfg := DefaultConfig()
	cfg.MaxPages = 0
	if _, err := New(fabric, cfg); err == nil {
		t.Fatal("zero page budget accepted")
	}
}

func TestCrawlDiscoversDirectoryNeighbourhoodOnly(t *testing.T) {
	c, pop, seeds := setupCrawl(t, 2)
	res := c.Crawl(seeds)

	if len(res.Discovered) <= len(seeds) {
		t.Fatal("crawl discovered nothing beyond the seeds")
	}
	published := len(pop.WithDescriptor())
	frac := float64(len(res.Discovered)) / float64(published)
	// The paper's motivation: linked directories cover only a few
	// percent of the landscape (1,657 / 39,824 ≈ 4%).
	if frac > 0.25 {
		t.Fatalf("link crawl covered %.0f%% — graph not sparse enough", frac*100)
	}
	// Everything discovered must be a real address.
	for addr := range res.Discovered {
		if _, ok := pop.ByAddress(addr); !ok {
			t.Fatalf("crawl invented address %s", addr)
		}
	}
	if res.Fetched == 0 {
		t.Fatal("no pages fetched")
	}
}

func TestCrawlCountsDeadLinks(t *testing.T) {
	c, _, seeds := setupCrawl(t, 3)
	res := c.Crawl(seeds)
	// Directory sites link to services that churned away or are
	// 443-only/dark — dead links are expected.
	if res.Unreachable == 0 {
		t.Fatal("no dead links encountered; link graph unrealistically clean")
	}
}

func TestCrawlRespectsPageBudget(t *testing.T) {
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)
	c, err := New(fabric, Config{MaxPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []onion.Address
	for _, s := range pop.Services {
		if s.Label == "TorDir" {
			seeds = append(seeds, s.Address)
		}
	}
	res := c.Crawl(seeds)
	if res.Fetched > 3 {
		t.Fatalf("fetched %d pages, budget 3", res.Fetched)
	}
}

func TestExtractOnionLinks(t *testing.T) {
	body := `<html><body>
<a href="http://aaaaaaaaaaaaaaaa.onion/">one</a>
<a href="http://example.com/">clearnet</a>
<a href="http://bbbbbbbbbbbbbbbb.onion/page">two</a>
</body></html>`
	links := darknet.ExtractOnionLinks(body)
	if len(links) != 2 {
		t.Fatalf("links = %v, want 2 onion links", links)
	}
	if links[0] != "aaaaaaaaaaaaaaaa" || links[1] != "bbbbbbbbbbbbbbbb" {
		t.Fatalf("links = %v", links)
	}
}
