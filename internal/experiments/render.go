package experiments

import (
	"fmt"
	"sort"

	"torhs/internal/core/content"
	"torhs/internal/core/deanon"
	"torhs/internal/core/scan"
	"torhs/internal/corpus"
	"torhs/internal/report"
	"torhs/internal/stats"
)

// The section builders below turn each experiment result into a typed
// report.Section — the single source of the paper's tables and figures.
// Every node carries the printf format the pre-model pipeline rendered
// with, so the text encoding of these sections is byte-identical to the
// historical fmt output (pinned by the golden-file and determinism
// tests); the JSON/Markdown/CSV encodings expose the same data
// structurally. Callers that want printed output text-encode a section
// with report.EncodeText(w, report.New(s.ID, s)).

// CollectionSection models the introduction's motivating gap:
// link-graph crawling vs trawling.
func CollectionSection(c *CollectionComparison) *report.Section {
	return report.NewSection("collection", "Collection methods (introduction motivation)").
		KVLine("services publishing descriptors: %d",
			"published", report.Int(c.Published)).
		KVLine("  link crawl from directory sites: %6d addresses (%4.1f%%)",
			"crawlDiscovered", report.Int(c.CrawlDiscovered),
			"crawlPercent", report.Float(c.CrawlFraction*100)).
		KVLine("  trawling attack:                 %6d addresses (%4.1f%%)",
			"trawlCollected", report.Int(c.TrawlCollected),
			"trawlPercent", report.Float(c.TrawlFraction*100))
}

// Fig1Section models the open-ports distribution (paper Fig. 1).
func Fig1Section(res *scan.Result) *report.Section {
	s := report.NewSection("fig1", "Fig. 1: open-ports distribution").
		KVLine("addresses scanned: %d, with descriptor: %d, timeouts: %d",
			"scanned", report.Int(res.TotalAddresses),
			"withDescriptor", report.Int(res.WithDescriptor),
			"timeouts", report.Int(res.Timeouts)).
		KVLine("open ports: %d over %d unique port numbers, coverage %.0f%%",
			"openPorts", report.Int(res.TotalOpenPorts),
			"uniquePorts", report.Int(res.UniquePorts),
			"coveragePercent", report.Float(res.Coverage*100))
	fig := &report.Figure{ID: "ports", RowFormat: "  %-16s %6d", Columns: []string{"port", "count"}}
	for _, row := range res.Fig1(50) {
		fig.Points = append(fig.Points, report.Point{
			Label:  row.Label,
			Values: []report.Value{report.Int(row.Count)},
		})
	}
	return s.AddFigure(fig)
}

// CertAuditSection models the Section III HTTPS-certificate findings.
func CertAuditSection(a *scan.CertAudit) *report.Section {
	return report.NewSection("cert-audit", "Section III: HTTPS certificates").
		KVLine("HTTPS services: %d",
			"httpsServices", report.Int(a.HTTPSServices)).
		KVLine("self-signed, CN mismatch: %d (of which TorHost CN: %d)",
			"selfSignedMismatch", report.Int(a.SelfSignedMismatch),
			"torHostCN", report.Int(a.TorHostCN)).
		KVLine("certificates leaking public DNS names: %d",
			"dnsLeaks", report.Int(a.DNSLeaks))
}

// TableISection models the HTTP/HTTPS destinations per port (paper
// Table I).
func TableISection(res *content.Result) *report.Section {
	s := report.NewSection("table1", "Table I: HTTP(S) destinations per port").
		KVLine("attempted: %d, open at crawl: %d, connected: %d",
			"attempted", report.Int(res.Attempted),
			"openAtCrawl", report.Int(res.OpenAtCrawl),
			"connected", report.Int(res.Connected))
	tab := &report.Table{ID: "destinations", Columns: []string{"port", "count"}, RowFormat: "  %-6s %6d"}
	for _, row := range res.TableI() {
		tab.Rows = append(tab.Rows, []report.Value{report.String(row.Label), report.Int(row.Count)})
	}
	return s.AddTable(tab).
		KVLine("excluded: short %d (SSH banners %d), 443 duplicates %d, error pages %d",
			"excludedShort", report.Int(res.ExcludedShort),
			"excludedSSHBanners", report.Int(res.ExcludedSSHBanners),
			"excludedDup443", report.Int(res.ExcludedDup443),
			"excludedError", report.Int(res.ExcludedError)).
		KVLine("classified: %d",
			"classified", report.Int(res.Classified))
}

// LanguagesSection models the language mix of classified pages.
func LanguagesSection(res *content.Result) *report.Section {
	s := report.NewSection("languages", "Section IV: language mix")
	ranked := stats.RankCounts(res.LanguageCounts)
	total := 0
	for _, r := range ranked {
		total += r.Count
	}
	fig := &report.Figure{ID: "languages", RowFormat: "  %-4s %5d (%4.1f%%)", Columns: []string{"language", "count", "percent"}}
	for _, r := range ranked {
		fig.Points = append(fig.Points, report.Point{
			Label:  r.Key,
			Values: []report.Value{report.Int(r.Count), report.Float(100 * float64(r.Count) / float64(total))},
		})
	}
	return s.AddFigure(fig).
		KVLine("languages found: %d", "languages", report.Int(len(ranked)))
}

// Fig2Section models the topic distribution (paper Fig. 2).
func Fig2Section(res *content.Result) *report.Section {
	s := report.NewSection("fig2", "Fig. 2: topic distribution").
		KVLine("English pages: %d (TorHost default: %d, topic-classified: %d)",
			"englishTotal", report.Int(res.EnglishTotal),
			"torhostDefault", report.Int(res.TorhostDefault),
			"topicClassified", report.Int(res.EnglishTotal-res.TorhostDefault))
	pct := res.TopicPercentages()
	fig := &report.Figure{ID: "topics", RowFormat: "  %-18s %3d%%  (paper: %d%%)", Columns: []string{"topic", "percent", "paperPercent"}}
	for _, t := range corpus.AllTopics() {
		fig.Points = append(fig.Points, report.Point{
			Label:  t.String(),
			Values: []report.Value{report.Int(pct[t]), report.Int(corpus.PaperTopicPercent[t])},
		})
	}
	return s.AddFigure(fig)
}

// TableIISection models the popularity ranking (paper Table II), topN
// rows plus the named below-top entries.
func TableIISection(res *PopularityResult, topN int) *report.Section {
	s := report.NewSection("table2", "Table II: most popular hidden services").
		KVLine("collection: %d addresses (%.0f%% of published)",
			"collected", report.Int(len(res.Harvest.Addresses)),
			"collectedPercent", report.Float(res.Harvest.CollectedFraction*100)).
		KVLine("requests: %d total, %d unique descriptor IDs, %d resolved IDs -> %d addresses",
			"totalRequests", report.Int(res.Resolution.TotalRequests),
			"uniqueIDs", report.Int(res.Resolution.UniqueIDs),
			"resolvedIDs", report.Int(res.Resolution.ResolvedIDs),
			"resolvedAddresses", report.Int(res.Resolution.ResolvedAddresses))
	if res.Resolution.TotalRequests > 0 {
		s.KVLine("unresolvable request share: %.0f%%",
			"unresolvablePercent", report.Float(
				100*float64(res.Resolution.TotalRequests-res.Resolution.ResolvedRequests)/
					float64(res.Resolution.TotalRequests)))
	}
	if res.Harvest.PublishedIDsSeen > 0 {
		s.KVLine("published descriptors ever requested: %d of %d (%.0f%%)",
			"requestedPublished", report.Int(res.Harvest.RequestedPublishedIDs),
			"publishedSeen", report.Int(res.Harvest.PublishedIDsSeen),
			"requestedPercent", report.Float(res.Harvest.RequestedPublishedFraction()*100))
	}
	tab := &report.Table{ID: "ranking", Columns: []string{"rank", "requests", "address", "label"}, RowFormat: "  %4d %7d  %s  %s"}
	for _, e := range res.Ranking {
		if e.Rank <= topN || (e.Label != "" && e.Label != "Skynet") {
			tab.Rows = append(tab.Rows, []report.Value{
				report.Int(e.Rank), report.Int(e.Requests),
				report.String(e.Addr.String()), report.String(e.Label),
			})
		}
		if e.Rank > 600 {
			break
		}
	}
	return s.AddTable(tab)
}

// PrefixAuditSection models vanity-prefix clusters (the paper's
// "silkroa" phishing observation).
func PrefixAuditSection(clusters []PrefixCluster) *report.Section {
	s := report.NewSection("prefix-audit", "Vanity-prefix clusters (phishing audit)")
	if len(clusters) == 0 {
		s.TextLines("no clusters found")
	}
	for _, c := range clusters {
		s.KVLine("prefix %q: %d addresses",
			"prefix", report.String(c.Prefix),
			"addresses", report.Int(len(c.Addresses)))
		tab := &report.Table{ID: "cluster-" + c.Prefix, Columns: []string{"address", "label"}, RowFormat: "  %s  %s"}
		for i, a := range c.Addresses {
			label := c.Labels[i]
			if label == "" {
				label = "<unlabelled>"
			}
			tab.Rows = append(tab.Rows, []report.Value{report.String(a.String()), report.String(label)})
		}
		s.AddTable(tab)
	}
	return s
}

// Fig3Section models the deanonymised-client country map (paper Fig. 3).
func Fig3Section(rep *deanon.Report) *report.Section {
	s := report.NewSection("fig3", "Fig. 3: clients of a popular hidden service").
		KVLine("target: %s", "target", report.String(rep.Target.String())).
		KVLine("signatures sent: %d, detections: %d (rate %.2f), unique clients: %d",
			"signaturesSent", report.Int(rep.SignaturesSent),
			"detections", report.Int(len(rep.Detections)),
			"detectionRate", report.Float(rep.DetectionRate),
			"uniqueClients", report.Int(rep.UniqueClients))
	fig := &report.Figure{ID: "countries", RowFormat: "  %-3s %5d", Columns: []string{"country", "clients"}}
	for _, p := range rep.MapPoints() {
		fig.Points = append(fig.Points, report.Point{
			Label:  p.Key,
			Values: []report.Value{report.Int(p.Count)},
		})
	}
	return s.AddFigure(fig)
}

// ServiceDeanonSection models the Section II-B service-side guard
// attack outcome.
func ServiceDeanonSection(rep *deanon.ServiceReport) *report.Section {
	s := report.NewSection("service-deanon", "Section II-B: service deanonymisation (the [8] attack)").
		KVLine("target: %s", "target", report.String(rep.Target.String())).
		KVLine("upload signatures sent: %d, guard hits: %d",
			"signaturesSent", report.Int(rep.SignaturesSent),
			"guardHits", report.Int(len(rep.Detections)))
	if rep.Success {
		s.KVLine("service deanonymised: IP %s (first hit on observation day %d)",
			"revealedIP", report.String(rep.RevealedIP),
			"daysToFirstDetection", report.Int(rep.DaysToFirstDetection))
	} else {
		s.TextLines("service not deanonymised in this window")
	}
	return s
}

// TrackingSection models the Section VII analysis.
func TrackingSection(res *TrackingResult) *report.Section {
	rep := res.Report
	s := report.NewSection("tracking",
		fmt.Sprintf("Section VII: tracking detection for %s", res.Scenario.TargetAddress.String())).
		KVLine("window: %s .. %s (%d consensuses, mean HSDirs %.0f)",
			"from", report.String(rep.From.Format("2006-01-02")),
			"to", report.String(rep.To.Format("2006-01-02")),
			"consensuses", report.Int(rep.Days),
			"meanHSDirs", report.Float(rep.MeanHSDirs)).
		KVLine("relays ever responsible: %d, suspicious: %d",
			"relays", report.Int(len(rep.Relays)),
			"suspicious", report.Int(len(rep.Suspicious)))
	for _, idx := range rep.Suspicious {
		r := rep.Relays[idx]
		nick := ""
		if len(r.Nicknames) > 0 {
			nick = r.Nicknames[0]
		}
		s.KVLine("  relay %4d %-14s resp=%2d maxRatio=%-10.0f switches=%d reasons=%d",
			"relayID", report.Int(r.RelayID),
			"nickname", report.String(nick),
			"timesResponsible", report.Int(r.TimesResponsible),
			"maxRatio", report.Float(r.MaxRatio),
			"switches", report.Int(r.Switches),
			"reasons", report.Int(len(r.Reasons)))
		for _, reason := range r.Reasons {
			s.TextLines("      - " + reason)
		}
	}
	s.TextLines("episodes:")
	for _, ep := range rep.Episodes {
		kind := "partial"
		if ep.FullTakeover {
			kind = "FULL TAKEOVER of all 6 responsible slots"
		}
		ids := make([]int, 0, len(ep.RelayIDs))
		for _, id := range ep.RelayIDs {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		s.KVLine("  %-12s %s .. %s  members=%d  %s",
			"label", report.String(ep.Label),
			"from", report.String(ep.From.Format("2006-01-02")),
			"to", report.String(ep.To.Format("2006-01-02")),
			"members", report.Int(len(ids)),
			"kind", report.String(kind))
	}
	return s
}
