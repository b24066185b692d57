// Package darknet is the reachability fabric the measurement pipelines
// probe: it answers port probes, serves TLS certificates, and renders
// HTTP bodies for the synthetic population. It stands in for the live
// network the paper scanned and crawled, reproducing the behaviours the
// pipelines depend on: descriptor churn between scan and crawl, timeouts,
// the Skynet abnormal-error fingerprint on port 55080, the Goldnet 503 +
// server-status behaviour, TorHost default pages, and 443 duplicates.
package darknet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"torhs/internal/corpus"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

// Phase selects the measurement epoch: the February port scan or the
// content crawl two months later.
type Phase int

// Measurement phases.
const (
	PhaseScan Phase = iota + 1
	PhaseCrawl
)

// ProbeResult is the outcome of a TCP probe against one onion:port.
type ProbeResult int

// Probe outcomes.
const (
	// ProbeOpen: the port accepts connections.
	ProbeOpen ProbeResult = iota + 1
	// ProbeClosed: connection refused.
	ProbeClosed
	// ProbeAbnormal: the distinctive Skynet error on port 55080; the
	// paper counts it as open because it fingerprints the bot.
	ProbeAbnormal
	// ProbeTimeout: the probe persistently times out.
	ProbeTimeout
	// ProbeNoDescriptor: the service's descriptor cannot be fetched, so
	// no connection can even be attempted.
	ProbeNoDescriptor
)

// String names the probe result.
func (r ProbeResult) String() string {
	switch r {
	case ProbeOpen:
		return "open"
	case ProbeClosed:
		return "closed"
	case ProbeAbnormal:
		return "abnormal"
	case ProbeTimeout:
		return "timeout"
	case ProbeNoDescriptor:
		return "no-descriptor"
	default:
		return "unknown"
	}
}

// Errors returned by fabric operations.
var (
	ErrUnknownService = errors.New("darknet: unknown onion address")
	ErrNotHTTP        = errors.New("darknet: destination does not speak HTTP")
	ErrUnreachable    = errors.New("darknet: destination unreachable")
	ErrNoTLS          = errors.New("darknet: no TLS listener")
)

// HTTPResponse is a crawled HTTP(S) response.
type HTTPResponse struct {
	StatusCode int
	Body       string
	// ServerStatusAvailable marks that /server-status is exposed (the
	// Goldnet C&C misconfiguration the paper exploited).
	ServerStatusAvailable bool
}

// ServerStatus is the Apache server-status page of a C&C front.
type ServerStatus struct {
	// UptimeSeconds is the Apache uptime; fronts on the same physical
	// machine report identical uptimes.
	UptimeSeconds int64
	// TrafficBytesPerSec ≈ 330 KB/s in the paper.
	TrafficBytesPerSec float64
	// RequestsPerSec ≈ 10 in the paper, almost all POST.
	RequestsPerSec float64
	PostFraction   float64
}

// Fabric answers probes against a population.
type Fabric struct {
	pop *hspop.Population
}

// New creates a fabric over the population.
func New(pop *hspop.Population) *Fabric { return &Fabric{pop: pop} }

// Probe performs a TCP probe of addr:port in the given phase.
func (f *Fabric) Probe(addr onion.Address, port int, phase Phase) ProbeResult {
	s, ok := f.pop.ByAddress(addr)
	if !ok || !s.DescriptorAtScan {
		return ProbeNoDescriptor
	}
	if phase == PhaseCrawl && !s.OpenAtCrawl {
		return ProbeNoDescriptor
	}
	if s.ScanTimeout {
		return ProbeTimeout
	}
	state, open := s.Ports[port]
	if !open {
		return ProbeClosed
	}
	if state == hspop.PortAbnormal {
		return ProbeAbnormal
	}
	return ProbeOpen
}

// AnsweringPorts performs a full-range port sweep of addr in the given
// phase. It returns the answering ports in ascending order (including
// abnormal-error ports, which fingerprint Skynet bots) and a status:
// ProbeOpen when the sweep completed, ProbeTimeout or ProbeNoDescriptor
// when it could not.
func (f *Fabric) AnsweringPorts(addr onion.Address, phase Phase) ([]int, ProbeResult) {
	s, ok := f.pop.ByAddress(addr)
	if !ok || !s.DescriptorAtScan {
		return nil, ProbeNoDescriptor
	}
	if phase == PhaseCrawl && !s.OpenAtCrawl {
		return nil, ProbeNoDescriptor
	}
	if s.ScanTimeout {
		return nil, ProbeTimeout
	}
	ports := make([]int, 0, len(s.Ports))
	for p := range s.Ports {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	return ports, ProbeOpen
}

// TLSCert returns the certificate served on addr:443.
func (f *Fabric) TLSCert(addr onion.Address, phase Phase) (hspop.Cert, error) {
	s, ok := f.pop.ByAddress(addr)
	if !ok {
		return hspop.Cert{}, ErrUnknownService
	}
	if f.Probe(addr, hspop.PortHTTPS, phase) != ProbeOpen {
		return hspop.Cert{}, ErrNoTLS
	}
	return s.Cert, nil
}

// Get issues an HTTP(S) GET against addr:port in the given phase.
func (f *Fabric) Get(addr onion.Address, port int, phase Phase) (*HTTPResponse, error) {
	s, ok := f.pop.ByAddress(addr)
	if !ok {
		return nil, ErrUnknownService
	}
	switch f.Probe(addr, port, phase) {
	case ProbeOpen:
	case ProbeAbnormal:
		return nil, ErrUnreachable
	default:
		return nil, ErrUnreachable
	}
	if !s.SpeaksHTTP(port) {
		return nil, ErrNotHTTP
	}

	if s.Kind == hspop.KindGoldnetCC {
		return &HTTPResponse{
			StatusCode:            503,
			Body:                  "<html><head><title>503 Service Temporarily Unavailable</title></head></html>",
			ServerStatusAvailable: true,
		}, nil
	}
	body, err := renderPage(s)
	if err != nil {
		return nil, fmt.Errorf("darknet: render %s: %w", addr, err)
	}
	return &HTTPResponse{StatusCode: 200, Body: body}, nil
}

// ServerStatusPage fetches /server-status from a C&C front.
func (f *Fabric) ServerStatusPage(addr onion.Address, phase Phase) (*ServerStatus, error) {
	s, ok := f.pop.ByAddress(addr)
	if !ok {
		return nil, ErrUnknownService
	}
	if s.Kind != hspop.KindGoldnetCC {
		return nil, ErrUnreachable
	}
	if f.Probe(addr, hspop.PortHTTP, phase) != ProbeOpen {
		return nil, ErrUnreachable
	}
	// Fronts on the same physical server share one Apache instance and
	// hence one uptime; the two machines differ.
	uptime := int64(1234567)
	if s.PhysServer == 2 {
		uptime = 2345678
	}
	return &ServerStatus{
		UptimeSeconds:      uptime,
		TrafficBytesPerSec: 330 * 1024,
		RequestsPerSec:     10,
		PostFraction:       0.97,
	}, nil
}

// pageRNGs pools the RNGs pages are rendered with. Each render reseeds
// the one it takes (hspop.Service.SeedPageRNG), which restarts it on
// exactly the stream a new source would draw, so pooling changes no byte
// and a page allocates no 4.9 KB source.
var pageRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// renderPage produces the deterministic page body for a service. Only
// the pages that draw text seed an RNG.
func renderPage(s *hspop.Service) (string, error) {
	p := s.Page
	if p == nil {
		return "", nil
	}
	if s.Kind != hspop.KindSSH && p.TorhostDefault {
		return torhostDefaultPage, nil
	}
	rng := pageRNGs.Get().(*rand.Rand)
	defer pageRNGs.Put(rng)
	s.SeedPageRNG(rng)
	switch {
	case s.Kind == hspop.KindSSH:
		return sshBanner(s, rng), nil
	case p.ErrorPage:
		text, err := corpus.SampleText(rng, corpus.LangEnglish, p.WordCount-6, nil, 0)
		if err != nil {
			return "", err
		}
		return "<html><body><h1>404 Not Found</h1><p>the requested resource was not found " +
			text + "</p></body></html>", nil
	default:
		keywords, err := corpus.TopicKeywords(p.Topic)
		if err != nil {
			return "", err
		}
		extraProb := 0.30
		if p.Language != corpus.LangEnglish {
			// Non-English pages carry few English topic keywords.
			extraProb = 0.02
		}
		text, err := corpus.SampleText(rng, p.Language, p.WordCount, keywords, extraProb)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		sb.WriteString("<html><body><p>")
		sb.WriteString(text)
		sb.WriteString("</p>")
		for _, link := range s.LinksTo {
			sb.WriteString(`<a href="http://`)
			sb.WriteString(link.String())
			sb.WriteString(`/">`)
			sb.WriteString(string(link))
			sb.WriteString("</a> ")
		}
		sb.WriteString("</body></html>")
		return sb.String(), nil
	}
}

// ExtractOnionLinks parses onion-address hyperlinks out of an HTML body.
func ExtractOnionLinks(body string) []onion.Address {
	var out []onion.Address
	rest := body
	for {
		i := strings.Index(rest, `href="http://`)
		if i < 0 {
			return out
		}
		rest = rest[i+len(`href="http://`):]
		end := strings.IndexAny(rest, `/"`)
		if end < 0 {
			return out
		}
		if addr, _, err := onion.ParseAddress(rest[:end]); err == nil {
			out = append(out, addr)
		}
		rest = rest[end:]
	}
}

// sshBanner renders an SSH version banner from the service's seeded page
// RNG. Long-banner services append a verbose MOTD (the two ≥20-word
// oddities the paper classified).
func sshBanner(s *hspop.Service, rng *rand.Rand) string {
	versions := []string{
		"SSH-2.0-OpenSSH_5.9p1 Debian-5ubuntu1",
		"SSH-2.0-OpenSSH_6.0p1 Debian-4",
		"SSH-2.0-dropbear_2012.55",
	}
	banner := versions[rng.Intn(len(versions))]
	if s.Page != nil && s.Page.WordCount >= 20 {
		motd, err := corpus.SampleText(rng, corpus.LangEnglish, s.Page.WordCount, nil, 0)
		if err == nil {
			banner += "\n" + motd
		}
	}
	return banner
}

// torhostDefaultPage is the TorHost free-hosting default page; every
// TorHost-hosted site that never uploaded content serves this same text.
var torhostDefaultPage = "<html><body><h1>torhost.onion free anonymous hosting</h1><p>" +
	strings.Repeat("welcome to torhost free anonymous hidden service hosting "+
		"your site is ready upload your content to get started this page is the default page ", 3) +
	"</p></body></html>"

// TorhostDefaultBody exposes the default page for detector training in
// the crawler.
func TorhostDefaultBody() string { return torhostDefaultPage }
