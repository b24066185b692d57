package content

import (
	"context"
	"strings"
	"testing"

	"torhs/internal/core/scan"
	"torhs/internal/corpus"
	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

func runPipeline(t *testing.T, seed int64) (*Crawler, *Result) {
	t.Helper()
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)

	sc := scan.New(fabric, scan.DefaultConfig(seed))
	addrs := make([]onion.Address, 0, pop.Len())
	for _, s := range pop.Services {
		addrs = append(addrs, s.Address)
	}
	scanRes := sc.ScanAll(addrs)

	cr, err := New(fabric, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dests := DestinationsFromPorts(scanRes.PerAddress)
	res, err := cr.Crawl(dests)
	if err != nil {
		t.Fatal(err)
	}
	return cr, res
}

func TestDestinationsExcludeSkynetPort(t *testing.T) {
	per := map[onion.Address][]int{
		"aaaaaaaaaaaaaaaa": {80, 55080},
		"bbbbbbbbbbbbbbbb": {55080},
		"cccccccccccccccc": {443, 80},
	}
	dests := DestinationsFromPorts(per)
	if len(dests) != 3 {
		t.Fatalf("destinations = %d, want 3", len(dests))
	}
	for _, d := range dests {
		if d.Port == 55080 {
			t.Fatal("55080 destination included")
		}
	}
	// Sorted: address "a..." port 80, then "c..." 80 before 443.
	if dests[0].Addr != "aaaaaaaaaaaaaaaa" || dests[1].Port != 80 || dests[2].Port != 443 {
		t.Fatalf("ordering wrong: %+v", dests)
	}
}

func TestCrawlFunnelShape(t *testing.T) {
	_, res := runPipeline(t, 2)

	// Funnel: attempted > open >= connected > classified.
	if !(res.Attempted > res.OpenAtCrawl) {
		t.Fatalf("no churn: attempted %d, open %d", res.Attempted, res.OpenAtCrawl)
	}
	if !(res.OpenAtCrawl >= res.Connected) {
		t.Fatal("connected exceeds open")
	}
	if !(res.Connected > res.Classified) {
		t.Fatal("no exclusions applied")
	}
	// Conservation: connected = classified + exclusions.
	if res.Connected != res.Classified+res.ExcludedShort+res.ExcludedDup443+res.ExcludedError {
		t.Fatalf("funnel leaks: connected=%d classified=%d short=%d dup=%d err=%d",
			res.Connected, res.Classified, res.ExcludedShort, res.ExcludedDup443, res.ExcludedError)
	}
	if res.ExcludedSSHBanners == 0 || res.ExcludedSSHBanners > res.ExcludedShort {
		t.Fatalf("SSH banners = %d of short %d", res.ExcludedSSHBanners, res.ExcludedShort)
	}
	if res.ExcludedDup443 == 0 {
		t.Fatal("no 443 duplicates found")
	}
	if res.ExcludedError == 0 {
		t.Fatal("no error pages found")
	}
}

func TestTableIShape(t *testing.T) {
	_, res := runPipeline(t, 3)
	rows := res.TableI()
	if len(rows) != 5 {
		t.Fatalf("Table I rows = %d, want 5", len(rows))
	}
	if rows[0].Label != "80" || rows[1].Label != "443" || rows[2].Label != "22" ||
		rows[3].Label != "8080" || rows[4].Label != "Other" {
		t.Fatalf("Table I labels wrong: %+v", rows)
	}
	// Paper ordering: port 80 > 443 >= 22 > 8080.
	if !(rows[0].Count > rows[1].Count) {
		t.Fatalf("port 80 (%d) not above 443 (%d)", rows[0].Count, rows[1].Count)
	}
	if !(rows[1].Count >= rows[2].Count) {
		t.Fatalf("port 443 (%d) below 22 (%d)", rows[1].Count, rows[2].Count)
	}
	sum := 0
	for _, r := range rows {
		sum += r.Count
	}
	if sum != res.Connected {
		t.Fatalf("Table I sums to %d, want %d", sum, res.Connected)
	}
}

func TestLanguageMixEnglishDominant(t *testing.T) {
	_, res := runPipeline(t, 4)
	if res.EnglishTotal != res.LanguageCounts[corpus.LangEnglish] {
		t.Fatal("EnglishTotal inconsistent")
	}
	frac := float64(res.EnglishTotal) / float64(res.Classified)
	if frac < 0.75 || frac > 0.95 {
		t.Fatalf("English fraction = %.2f, want ~0.84", frac)
	}
	if len(res.LanguageCounts) < 5 {
		t.Fatalf("only %d languages detected, want multilingual mix", len(res.LanguageCounts))
	}
}

func TestTorhostDefaultDetected(t *testing.T) {
	_, res := runPipeline(t, 5)
	if res.TorhostDefault == 0 {
		t.Fatal("no TorHost default pages detected")
	}
	classifiedEnglish := 0
	for _, n := range res.TopicCounts {
		classifiedEnglish += n
	}
	if res.TorhostDefault+classifiedEnglish != res.EnglishTotal {
		t.Fatalf("English accounting: default %d + topics %d != english %d",
			res.TorhostDefault, classifiedEnglish, res.EnglishTotal)
	}
}

func TestTopicDistributionShape(t *testing.T) {
	_, res := runPipeline(t, 6)
	pct := res.TopicPercentages()
	sum := 0
	for _, v := range pct {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("topic percentages sum to %d", sum)
	}
	// The paper's dominant categories must dominate here too.
	if pct[corpus.TopicAdult] < pct[corpus.TopicSports] {
		t.Fatal("Adult not above Sports")
	}
	if pct[corpus.TopicDrugs] < pct[corpus.TopicGames] {
		t.Fatal("Drugs not above Games")
	}
	// Adult+Drugs+Counterfeit+Weapons ≈ 44% in the paper; allow slack.
	illegal := pct[corpus.TopicAdult] + pct[corpus.TopicDrugs] +
		pct[corpus.TopicCounterfeit] + pct[corpus.TopicWeapons]
	if illegal < 30 || illegal > 60 {
		t.Fatalf("Adult+Drugs+Counterfeit+Weapons = %d%%, want ~44%%", illegal)
	}
}

func TestStripHTML(t *testing.T) {
	in := "<html><body><h1>Title</h1><p>hello world</p></body></html>"
	out := StripHTML(in)
	for _, want := range []string{"Title", "hello", "world"} {
		if !containsWord(out, want) {
			t.Fatalf("StripHTML lost %q: %q", want, out)
		}
	}
	if containsWord(out, "html") || containsWord(out, "body") {
		t.Fatalf("StripHTML kept tags: %q", out)
	}
}

func containsWord(s, w string) bool {
	for _, f := range splitFields(s) {
		if f == w {
			return true
		}
	}
	return false
}

func splitFields(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\n' || r == '\t' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// TestIsErrorPage: a marker matches wherever it matches in
// strings.ToLower of the body, also across the non-ASCII runes that lower
// to ASCII (U+0130 to 'i', U+212A to 'k'), and nowhere else.
func TestIsErrorPage(t *testing.T) {
	for body, want := range map[string]bool{
		"<html><body><h1>404 Not Found</h1></body></html>":                  true,
		"<html><body><p>all about 404 recovery tutorials</p></body></html>": false,
		"<H1>403 FORB\u0130DDEN</H1>":                                       true,
		"503 SERV\u0130CE TEMPORAR\u0130LY UNAVA\u0130LABLE":                true,
		"<h1>403 forb\u0131dden</h1>":                                       false, // dotless i stays non-ASCII
		"<h1>404 not found</h1\xff>":                                        false,
		"\u212a<h1>404 NOT FOUND</h1>":                                      true,
		"<h1>500 internal server error</h":                                  false,
	} {
		if got := IsErrorPage(body); got != want || got != referenceIsErrorPage(body) {
			t.Errorf("IsErrorPage(%q) = %v, want %v", body, got, want)
		}
	}
}

// referenceIsErrorPage is the copying test IsErrorPage replaces.
func referenceIsErrorPage(body string) bool {
	lower := strings.ToLower(body)
	for _, m := range errorMarkers {
		if strings.Contains(lower, m) {
			return true
		}
	}
	return false
}

// FuzzPageFilters checks the crawl's copy-free page filters against
// their copying references on arbitrary bytes: wordCount must equal
// len(strings.Fields) and IsErrorPage must equal ToLower plus Contains.
// The seed corpus lives in testdata/fuzz/FuzzPageFilters.
func FuzzPageFilters(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		body := string(data)
		if got, want := wordCount(body), len(strings.Fields(body)); got != want {
			t.Fatalf("wordCount(%q) = %d, strings.Fields finds %d", body, got, want)
		}
		if got, want := IsErrorPage(body), referenceIsErrorPage(body); got != want {
			t.Fatalf("IsErrorPage(%q) = %v, ToLower+Contains says %v", body, got, want)
		}
	})
}

// referenceStripHTML is StripHTML written the obvious way: a tag runs
// from a '<' to the next '>' or to the end of the body and leaves one
// space per '<' in it, a '>' outside a tag is dropped, and text outside
// tags is kept, with each invalid UTF-8 byte read as U+FFFD.
func referenceStripHTML(body string) string {
	text := string([]rune(body))
	var out strings.Builder
	for {
		before, rest, found := strings.Cut(text, "<")
		out.WriteString(strings.ReplaceAll(before, ">", ""))
		if !found {
			return out.String()
		}
		tag, after, closed := strings.Cut(rest, ">")
		out.WriteString(strings.Repeat(" ", 1+strings.Count(tag, "<")))
		if !closed {
			return out.String()
		}
		text = after
	}
}

// FuzzStripHTML checks StripHTML byte for byte against its reference on
// arbitrary bytes.
func FuzzStripHTML(f *testing.F) {
	for _, seed := range []string{
		"",
		"plain text",
		"<html><body><h1>Title</h1><p>hello world</p></body></html>",
		"<p>unterminated <b",
		"a > b >> c",
		"<<nested> tag>",
		"<>",
		"\xff<b>\xfe\x80x</b>\xc3",
		"caf\xc3\xa9 <i>\xe2\x82</i>",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body := string(data)
		if got, want := StripHTML(body), referenceStripHTML(body); got != want {
			t.Fatalf("StripHTML(%q) = %q, reference %q", body, got, want)
		}
	})
}
