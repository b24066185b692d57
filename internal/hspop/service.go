// Package hspop synthesises a Tor hidden-service population calibrated to
// the marginals the paper reports: the Fig. 1 port mix (dominated by the
// Skynet botnet's port 55080), the Table I HTTP(S) protocol mix, the
// Fig. 2 topic mix and 17-language mix, and the Table II popularity head
// (the "Goldnet" C&C cluster, Skynet, adult sites, Silk Road, …).
//
// The real 2013 population is unobtainable; the paper's pipelines are
// distribution-driven, so a calibrated synthetic population exercises the
// identical code paths (see DESIGN.md, substitution table).
package hspop

import (
	"math/rand"

	"torhs/internal/corpus"
	"torhs/internal/onion"
)

// Kind is the behavioural class of a hidden service.
type Kind int

// Service kinds.
const (
	// KindSkynetBot is a machine infected by the Skynet malware: no open
	// ports, but port 55080 answers with an abnormal error.
	KindSkynetBot Kind = iota + 1
	// KindGoldnetCC is a C&C front of the large botnet the paper dubs
	// "Goldnet": port 80 open, always answers 503, exposes a
	// server-status page, and receives enormous client-request volume.
	KindGoldnetCC
	// KindSkynetCC is a Skynet command/bitcoin-pooling service.
	KindSkynetCC
	// KindBitcoinMine is a bitcoin mining pool ("BcMine" in Table II).
	KindBitcoinMine
	// KindWeb is an ordinary HTTP(S) site with content.
	KindWeb
	// KindSSH exposes only an SSH banner on port 22.
	KindSSH
	// KindTorChat is a TorChat peer on port 11009.
	KindTorChat
	// KindIRC is an IRC server on port 6667.
	KindIRC
	// KindPort4050 is the unexplained port-4050 cluster from Fig. 1.
	KindPort4050
	// KindMisc exposes a single uncommon port from the long tail.
	KindMisc
	// KindDark has a published descriptor but no open ports at all.
	KindDark
)

var kindNames = map[Kind]string{
	KindSkynetBot:   "SkynetBot",
	KindGoldnetCC:   "GoldnetCC",
	KindSkynetCC:    "SkynetCC",
	KindBitcoinMine: "BitcoinMine",
	KindWeb:         "Web",
	KindSSH:         "SSH",
	KindTorChat:     "TorChat",
	KindIRC:         "IRC",
	KindPort4050:    "Port4050",
	KindMisc:        "Misc",
	KindDark:        "Dark",
}

// String returns the kind name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "Kind(?)"
}

// Well-known port numbers used by the population.
const (
	PortHTTP    = 80
	PortHTTPS   = 443
	PortSSH     = 22
	PortSkynet  = 55080
	PortTorChat = 11009
	PortIRC     = 6667
	Port4050    = 4050
	PortAltHTTP = 8080
)

// PortState describes how a port responds to a scan probe.
type PortState int

// Port probe outcomes.
const (
	// PortOpen accepts connections.
	PortOpen PortState = iota + 1
	// PortAbnormal refuses with the distinctive non-standard error the
	// Skynet malware produces on port 55080. The paper counts these as
	// open, since they fingerprint the bot.
	PortAbnormal
)

// CertProfile classifies the TLS certificate a service presents on 443.
type CertProfile int

// Certificate profiles from the paper's Section III.
const (
	// CertNone: no certificate (no 443 listener).
	CertNone CertProfile = iota
	// CertTorHost: self-signed, CN "esjqyk2khizsy43i.onion" (the TorHost
	// free hosting service) — 1,168 cases in the paper.
	CertTorHost
	// CertSelfSignedMismatch: self-signed, CN does not match the host —
	// the remainder of the 1,225 mismatch cases.
	CertSelfSignedMismatch
	// CertSelfSignedMatch: self-signed but CN matches the onion address.
	CertSelfSignedMatch
	// CertDNSLeak: CN carries the operator's public DNS name,
	// deanonymising the service — 34 cases in the paper.
	CertDNSLeak
)

// TorHostCN is the certificate common name shared by TorHost-hosted
// services in the paper.
const TorHostCN = "esjqyk2khizsy43i.onion"

// Cert is the TLS certificate synthesised for a 443 listener.
type Cert struct {
	Profile    CertProfile
	CommonName string
	SelfSigned bool
}

// Page models the content an HTTP destination serves.
type Page struct {
	// Language is the ISO code of the page body.
	Language string
	// Topic is the content category (meaningful for substantive pages).
	Topic corpus.Topic
	// WordCount is the number of words in the page body. Pages under 20
	// words are excluded from classification, as in the paper.
	WordCount int
	// TorhostDefault marks the TorHost hosting service's default page.
	TorhostDefault bool
	// ErrorPage marks an error message wrapped in HTML.
	ErrorPage bool
	// DupOn443 marks that the 443 listener serves a byte-identical copy
	// of the port-80 content (1,108 crawl destinations in the paper).
	DupOn443 bool
}

// Service is one synthetic hidden service.
type Service struct {
	// Seq is the generation sequence number (stable identifier).
	Seq int
	// Key is the identity key; Address and PermID derive from it.
	Key     onion.IdentityKey
	Address onion.Address
	PermID  onion.PermanentID

	Kind Kind
	// Label is the Table II annotation ("Goldnet", "Skynet", "SilkRoad",
	// "Adult", …); empty for unlabelled services.
	Label string
	// PhysServer groups C&C fronts by physical machine: the paper
	// observed the nine Goldnet addresses shared two Apache uptimes.
	PhysServer int

	// Ports maps open port numbers to their probe behaviour.
	Ports map[int]PortState
	// HTTPPorts lists ports that speak HTTP(S) when probed by the
	// crawler, in ascending order.
	HTTPPorts []int
	// Cert is the 443 certificate, if any.
	Cert Cert
	// Page is the served content, if the service speaks HTTP.
	Page *Page

	// DescriptorAtScan: a descriptor was fetchable during the port-scan
	// window (24,511 of 39,824 in the paper).
	DescriptorAtScan bool
	// OpenAtCrawl: the service was still up during the content crawl two
	// months later (7,114 of 8,153 destinations).
	OpenAtCrawl bool
	// ScanTimeout: probes persistently time out (a small fraction of
	// the paper's missing coverage).
	ScanTimeout bool

	// ExpectedRequests is the mean number of client descriptor fetches
	// in one 2-hour measurement window (the Table II popularity weight).
	ExpectedRequests float64

	// LinksTo lists onion addresses this service's pages link to.
	// Hidden services rarely link to each other (the paper's stated
	// reason why traditional crawling cannot map the landscape); only
	// directory sites carry many links.
	LinksTo []onion.Address
}

// HasPort reports whether the service answers on the port (open or
// abnormal).
func (s *Service) HasPort(port int) bool {
	_, ok := s.Ports[port]
	return ok
}

// SpeaksHTTP reports whether the given port serves HTTP(S).
func (s *Service) SpeaksHTTP(port int) bool {
	for _, p := range s.HTTPPorts {
		if p == port {
			return true
		}
	}
	return false
}

// pageSeed derives a stable per-service seed for content rendering, so
// the same service always serves the same bytes.
func (s *Service) pageSeed() int64 {
	var seed int64
	for i := 0; i < 8 && i < len(s.PermID); i++ {
		seed = seed<<8 | int64(s.PermID[i])
	}
	return seed
}

// SeedPageRNG reseeds r to render this service's page. A reseeded
// math/rand RNG draws exactly the stream a new one of the same seed would,
// so a renderer can reuse one RNG across pages instead of allocating a
// source per page.
func (s *Service) SeedPageRNG(r *rand.Rand) {
	r.Seed(s.pageSeed())
}
