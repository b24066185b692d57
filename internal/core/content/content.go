// Package content implements the paper's Section IV: crawling the
// HTTP(S) destinations found by the port scan (two months later, so churn
// applies), filtering out short pages, SSH banners, 443 duplicates and
// error pages, detecting languages, and classifying English pages into
// the 18 topic categories of Fig. 2.
package content

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"torhs/internal/corpus"
	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/stats"
	"torhs/internal/textclass"
)

// Destination is one onion:port crawl target.
type Destination struct {
	Addr onion.Address
	Port int
}

// Config parameterises the crawler.
type Config struct {
	// Workers shards the crawl across goroutines (<= 0: one per CPU).
	// Destinations for the same address always stay on one shard, so
	// duplicate-443 detection and the final tallies are identical at
	// every worker count.
	Workers int
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config { return Config{} }

// minWords is the classification threshold; pages with fewer words are
// excluded (20 in the paper).
const minWords = 20

// langOrder is the language detector's n-gram order.
const langOrder = 3

// Crawler drives the content analysis.
type Crawler struct {
	cfg    Config
	fabric *darknet.Fabric
	lang   *textclass.LanguageDetector
	topics *textclass.TopicClassifier
}

// New builds a crawler, training both classifiers.
func New(fabric *darknet.Fabric, cfg Config) (*Crawler, error) {
	lang, err := textclass.TrainLanguageDetector(langOrder)
	if err != nil {
		return nil, fmt.Errorf("content: %w", err)
	}
	topics, err := textclass.TrainTopicClassifier()
	if err != nil {
		return nil, fmt.Errorf("content: %w", err)
	}
	return &Crawler{cfg: cfg, fabric: fabric, lang: lang, topics: topics}, nil
}

// Result aggregates a crawl — the data behind Table I and Fig. 2.
type Result struct {
	// Attempted destinations (8,153 in the paper: all scanned ports
	// except 55080).
	Attempted int
	// OpenAtCrawl destinations still answered (7,114 in the paper).
	OpenAtCrawl int
	// Connected destinations spoke HTTP(S) (6,579 in the paper).
	Connected int
	// ConnectedByPort is Table I: connected destinations per port.
	ConnectedByPort map[int]int

	// Exclusions, in the paper's order.
	ExcludedShort      int // <20 words (2,348)
	ExcludedSSHBanners int // subset of ExcludedShort from port 22 (1,092)
	ExcludedDup443     int // 443 copies of port-80 content (1,108)
	ExcludedError      int // error messages in HTML (73)

	// Classified destinations (3,050 in the paper).
	Classified int
	// LanguageCounts tallies detected languages over classified pages.
	LanguageCounts map[string]int
	// EnglishTotal is LanguageCounts["en"] (2,618 in the paper).
	EnglishTotal int
	// TorhostDefault counts English pages showing the TorHost default
	// (805 in the paper); they are excluded from topic classification.
	TorhostDefault int
	// TopicCounts tallies Fig. 2 categories over the remaining English
	// pages (1,813 in the paper).
	TopicCounts map[corpus.Topic]int
}

// DestinationsFromPorts converts a scan result's per-address port lists
// into crawl destinations, excluding the Skynet port as the paper did.
func DestinationsFromPorts(perAddress map[onion.Address][]int) []Destination {
	var out []Destination
	for addr, ports := range perAddress {
		for _, p := range ports {
			if p == hspop.PortSkynet {
				continue
			}
			out = append(out, Destination{Addr: addr, Port: p})
		}
	}
	// Deterministic order: by address, port 80 before 443 so duplicate
	// detection sees the port-80 body first.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// crawlSpan runs the Section IV pipeline over one contiguous span of the
// (address-sorted) destination list. The span must never split an
// address across shards: duplicate-443 detection needs the port-80 body
// fetched in the same span.
func (c *Crawler) crawlSpan(dests []Destination, res *Result) {
	torhostBody := darknet.TorhostDefaultBody()

	// Bodies of port-80 fetches per address, for duplicate detection.
	port80Body := make(map[onion.Address]string)

	for _, d := range dests {
		probe := c.fabric.Probe(d.Addr, d.Port, darknet.PhaseCrawl)
		if probe != darknet.ProbeOpen && probe != darknet.ProbeAbnormal {
			continue
		}
		res.OpenAtCrawl++

		resp, err := c.fabric.Get(d.Addr, d.Port, darknet.PhaseCrawl)
		if err != nil {
			continue // does not speak HTTP
		}
		res.Connected++
		res.ConnectedByPort[d.Port]++

		body := resp.Body
		if d.Port == hspop.PortHTTP {
			port80Body[d.Addr] = body
		}

		text := StripHTML(body)
		words := wordCount(text)

		switch {
		case words < minWords:
			res.ExcludedShort++
			if d.Port == hspop.PortSSH {
				res.ExcludedSSHBanners++
			}
			continue
		case d.Port == hspop.PortHTTPS && port80Body[d.Addr] == body:
			res.ExcludedDup443++
			continue
		case IsErrorPage(body):
			res.ExcludedError++
			continue
		}

		res.Classified++
		lang, _, err := c.lang.Detect(text)
		if err != nil {
			lang = corpus.LangEnglish
		}
		res.LanguageCounts[lang]++
		if lang != corpus.LangEnglish {
			continue
		}
		res.EnglishTotal++
		if body == torhostBody {
			res.TorhostDefault++
			continue
		}
		topic, _, err := c.topics.Classify(text)
		if err != nil {
			continue
		}
		res.TopicCounts[topic]++
	}
}

// newPartialResult allocates the map fields of a shard tally.
func newPartialResult() *Result {
	return &Result{
		ConnectedByPort: make(map[int]int),
		LanguageCounts:  make(map[string]int),
		TopicCounts:     make(map[corpus.Topic]int),
	}
}

// merge folds a shard tally into r. All fields are sums or map folds, so
// the merged result is independent of shard boundaries and scheduling.
func (r *Result) merge(o *Result) {
	r.OpenAtCrawl += o.OpenAtCrawl
	r.Connected += o.Connected
	r.ExcludedShort += o.ExcludedShort
	r.ExcludedSSHBanners += o.ExcludedSSHBanners
	r.ExcludedDup443 += o.ExcludedDup443
	r.ExcludedError += o.ExcludedError
	r.Classified += o.Classified
	r.EnglishTotal += o.EnglishTotal
	r.TorhostDefault += o.TorhostDefault
	for p, n := range o.ConnectedByPort {
		r.ConnectedByPort[p] += n
	}
	for l, n := range o.LanguageCounts {
		r.LanguageCounts[l] += n
	}
	for t, n := range o.TopicCounts {
		r.TopicCounts[t] += n
	}
}

// Crawl runs the full Section IV pipeline over the destinations, sharded
// across cfg.Workers goroutines. Destinations must be grouped by address
// (DestinationsFromPorts guarantees this); shard cuts are placed on
// address boundaries.
func (c *Crawler) Crawl(dests []Destination) (*Result, error) {
	res := newPartialResult()
	res.Attempted = len(dests)

	// Group boundaries: groups[g] is the start index of the g-th
	// address's run of destinations.
	groups := make([]int, 0, len(dests))
	for i := range dests {
		if i == 0 || dests[i].Addr != dests[i-1].Addr {
			groups = append(groups, i)
		}
	}

	partials := make([]*Result, parallel.NumChunks(c.cfg.Workers, len(groups)))
	parallel.Chunks(c.cfg.Workers, len(groups), func(shard, lo, hi int) {
		start := groups[lo]
		end := len(dests)
		if hi < len(groups) {
			end = groups[hi]
		}
		p := newPartialResult()
		c.crawlSpan(dests[start:end], p)
		partials[shard] = p
	})
	for _, p := range partials {
		res.merge(p)
	}
	return res, nil
}

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Label string
	Count int
}

// TableI renders the connected-destinations-per-port table as the paper
// prints it: ports 80, 443, 22, 8080 and an aggregated "Other".
func (r *Result) TableI() []TableIRow {
	named := []int{hspop.PortHTTP, hspop.PortHTTPS, hspop.PortSSH, hspop.PortAltHTTP}
	rows := make([]TableIRow, 0, len(named)+1)
	other := 0
	isNamed := map[int]bool{}
	for _, p := range named {
		isNamed[p] = true
		rows = append(rows, TableIRow{Label: fmt.Sprintf("%d", p), Count: r.ConnectedByPort[p]})
	}
	for p, n := range r.ConnectedByPort {
		if !isNamed[p] {
			other += n
		}
	}
	rows = append(rows, TableIRow{Label: "Other", Count: other})
	return rows
}

// TopicPercentages renders Fig. 2: integer percentages per category over
// the topic-classified English pages.
func (r *Result) TopicPercentages() map[corpus.Topic]int {
	counts := make(map[string]int, len(r.TopicCounts))
	for t, n := range r.TopicCounts {
		counts[t.String()] = n
	}
	byName := stats.Percentages(counts)
	out := make(map[corpus.Topic]int, len(byName))
	for _, t := range corpus.AllTopics() {
		if v, ok := byName[t.String()]; ok {
			out[t] = v
		}
	}
	return out
}

// StripHTML removes tags from an HTML body, leaving text content.
func StripHTML(body string) string {
	var sb strings.Builder
	sb.Grow(len(body))
	inTag := false
	for _, r := range body {
		switch {
		case r == '<':
			inTag = true
			sb.WriteByte(' ')
		case r == '>':
			inTag = false
		case !inTag:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// wordCount returns len(strings.Fields(text)) without building the
// fields: the number of runs of runes that are not white space
// (unicode.IsSpace).
func wordCount(text string) int {
	n, inWord := 0, false
	for _, r := range text {
		space := unicode.IsSpace(r)
		if !space && !inWord {
			n++
		}
		inWord = !space
	}
	return n
}

// errorMarkers are the lowercase ASCII snippets that mark an error page.
var errorMarkers = [...]string{
	"<h1>404 not found</h1>",
	"503 service temporarily unavailable",
	"<h1>500 internal server error</h1>",
	"<h1>403 forbidden</h1>",
}

// IsErrorPage detects an error message embedded in an HTML page: a
// marker in the lowercased body (strings.ToLower). It lowers each rune as
// it compares, so it copies nothing; U+0130 and U+212A lower to the ASCII
// 'i' and 'k', so a marker can match across them.
func IsErrorPage(body string) bool {
	for i := 0; i < len(body); {
		r, w := lowerRune(body[i:])
		if r < utf8.RuneSelf {
			for _, m := range errorMarkers {
				if m[0] == byte(r) && hasLowerPrefix(body[i+w:], m[1:]) {
					return true
				}
			}
		}
		i += w
	}
	return false
}

// hasLowerPrefix reports whether strings.ToLower(s) starts with the ASCII
// string prefix.
func hasLowerPrefix(s, prefix string) bool {
	for j := 0; j < len(prefix); j++ {
		if len(s) == 0 {
			return false
		}
		r, w := lowerRune(s)
		if r != rune(prefix[j]) {
			return false
		}
		s = s[w:]
	}
	return true
}

// lowerRune decodes the first rune of the non-empty s, as ranging over it
// would, and returns it lowercased with its width in s.
func lowerRune(s string) (rune, int) {
	r, w := rune(s[0]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(s)
	}
	return unicode.ToLower(r), w
}
