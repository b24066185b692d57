package hspop

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"torhs/internal/corpus"
	"torhs/internal/onion"
	"torhs/internal/parallel"
)

// Population is a generated hidden-service landscape. Populations are
// immutable once generated, so derived views (the descriptor-publishing
// services, the popularity ordering, the per-period descriptor IDs) are
// cached lazily and shared by every caller.
type Population struct {
	// Services lists every service, head entries first.
	Services []*Service
	// Config is the generating configuration.
	Config Config

	byAddr map[onion.Address]*Service

	withDescOnce sync.Once
	withDesc     []*Service

	popularOnce sync.Once
	popular     []*Service

	ids idCache
}

// Generate builds a population from cfg. Generation is deterministic in
// cfg.Seed.
//
// The generation chunk (one build phase over the whole population) is
// the cancellation unit: ctx is observed between phases, never inside
// one, so a nil error means a fully consistent population and a
// ctx.Err() return means the partial population was never published to
// the caller. Generation has no checkpoint plane — it is cheap to redo
// relative to the pipelines it feeds — so cancellation simply discards
// the partial arena.
//
//torhs:cancelpoint
func Generate(ctx context.Context, cfg Config) (*Population, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("hspop: scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.PhantomRequestFraction < 0 || cfg.PhantomRequestFraction >= 1 {
		return nil, fmt.Errorf("hspop: phantom fraction %v out of [0,1)", cfg.PhantomRequestFraction)
	}
	g := newGenerator(cfg)
	// Phase order matters: the head must resolve addresses (first
	// deriveIdentities) before the clones can mine the Silk Road vanity
	// prefix and dedup against the index, and the body's identities must
	// resolve before certificates bind to addresses.
	phases := []func(){
		g.buildHead,
		g.deriveIdentities,
		g.buildPhishingClones,
		g.buildBody,
		g.deriveIdentities,
		g.assignCerts,
		g.assignPopularityTail,
		g.buildLinkGraph,
	}
	for _, phase := range phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		phase()
	}
	return g.pop, nil
}

// newGenerator sizes the population's containers from the estimated
// service count.
func newGenerator(cfg Config) *generator {
	estimate := estimatedServices(cfg)
	g := &generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		pop: &Population{
			Config:   cfg,
			Services: make([]*Service, 0, estimate),
			byAddr:   make(map[onion.Address]*Service, estimate),
		},
	}
	// Arena chunks hold at most arenaChunk services, so a consumer that
	// only touches a prefix of the population never forces one
	// full-population block allocation up front. Chunks are allocated on
	// use, so the unconsumed tail costs nothing beyond its own blocks.
	g.svcArena.chunk = min(estimate, arenaChunk)
	g.pageArena.chunk = g.svcArena.chunk
	g.miscPorts = g.pickMiscPorts()
	return g
}

// estimatedServices predicts the population size from the configuration,
// so the generator can pre-size its arenas and the Services slice instead
// of growing them service by service. Phishing-clone dedup may land the
// real count slightly below the estimate; the chunked arenas tolerate
// either direction.
func estimatedServices(cfg Config) int {
	n := len(TableIIHead()) + cfg.PhishingClones + 1
	n += cfg.scaled(cfg.SkynetBots, 5)
	n += cfg.scaled(cfg.Web80Only, 5)
	n += cfg.scaled(cfg.WebBoth, 3)
	n += cfg.scaled(cfg.Web443Only, 2)
	n += cfg.scaled(cfg.SSHOnly, 3)
	n += cfg.scaled(cfg.TorChat, 2)
	n += cfg.scaled(cfg.IRC, 1)
	n += cfg.scaled(cfg.P4050, 1)
	n += cfg.scaled(cfg.Misc, 4)
	n += cfg.scaled(cfg.Dark, 2)
	n += cfg.scaled(cfg.Dead, 5)
	return n
}

// arenaChunk caps an arena chunk, in services.
const arenaChunk = 4096

// arena hands out pointers into pre-sized chunks so the generator
// performs one bulk allocation per chunk instead of one per service.
// Chunks are never reallocated once handed out, so every pointer stays
// valid even if the population outgrows the estimate.
type arena[T any] struct {
	chunk int
	buf   []T
}

func (a *arena[T]) take() *T {
	if len(a.buf) == cap(a.buf) {
		if a.chunk < 16 {
			a.chunk = 16
		}
		a.buf = make([]T, 0, a.chunk)
	}
	a.buf = append(a.buf, *new(T))
	return &a.buf[len(a.buf)-1]
}

type generator struct {
	cfg       Config
	rng       *rand.Rand
	pop       *Population
	seq       int
	miscPorts []int
	// derived marks how many of pop.Services have their identity
	// (PermID, Address) resolved and indexed; deriveIdentities advances it.
	derived int

	svcArena  arena[Service]
	pageArena arena[Page]
}

// newPage allocates a page from the arena and initialises it with p.
func (g *generator) newPage(p Page) *Page {
	out := g.pageArena.take()
	*out = p
	return out
}

// Shared HTTP-port singletons for the fixed port layouts: the slices are
// never mutated after generation, so every service with the same layout
// can alias one backing array.
var (
	portsHTTPOnly  = []int{PortHTTP}
	portsHTTPSOnly = []int{PortHTTPS}
	portsDualStack = []int{PortHTTP, PortHTTPS}
	portsSSHOnly   = []int{PortSSH}
)

// newService draws the service's key from the generator RNG but defers
// the derived identity (SHA-1 permanent ID, base32 address) to the next
// deriveIdentities flush: the derivation is the expensive part of
// generation and draws no randomness, so batching it keeps the RNG
// stream untouched while the hashing fans out over all CPUs.
func (g *generator) newService(kind Kind) *Service {
	key := onion.GenerateKey(g.rng)
	s := g.svcArena.take()
	*s = Service{
		Seq:   g.seq,
		Key:   key,
		Kind:  kind,
		Ports: map[int]PortState{},
	}
	g.seq++
	g.pop.Services = append(g.pop.Services, s)
	return s
}

// deriveIdentities resolves PermID and Address for every service created
// since the last flush and indexes them in byAddr. The per-service work
// is a pure function of the already-drawn key, so the shards cannot
// observe each other and the population is byte-identical at every
// worker count; only the index fill stays sequential (map writes).
func (g *generator) deriveIdentities() {
	pending := g.pop.Services[g.derived:]
	parallel.ForEach(g.cfg.Workers, len(pending), func(i int) {
		s := pending[i]
		if s.Key == nil {
			return // phishing clones carry a pre-mined identity
		}
		id := s.Key.PermanentID()
		s.PermID = id
		s.Address = onion.AddressFromID(id)
	})
	for _, s := range pending {
		g.pop.byAddr[s.Address] = s
	}
	g.derived = len(g.pop.Services)
}

// pickMiscPorts samples the distinct uncommon port numbers for the Misc
// long tail.
func (g *generator) pickMiscPorts() []int {
	named := map[int]bool{
		PortHTTP: true, PortHTTPS: true, PortSSH: true, PortSkynet: true,
		PortTorChat: true, PortIRC: true, Port4050: true, PortAltHTTP: true,
	}
	n := g.cfg.scaled(g.cfg.MiscUniquePorts, 3)
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		p := 1024 + g.rng.Intn(64000)
		if named[p] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (g *generator) buildHead() {
	for _, e := range TableIIHead() {
		s := g.newService(e.Kind)
		s.Label = e.Label
		s.PhysServer = e.PhysServer
		s.DescriptorAtScan = true
		s.OpenAtCrawl = true
		s.ExpectedRequests = float64(e.Requests)
		switch e.Kind {
		case KindGoldnetCC:
			// Port 80 open, 503 responses, server-status exposed. The
			// fabric special-cases Goldnet; no page content.
			s.Ports[PortHTTP] = PortOpen
			s.HTTPPorts = portsHTTPOnly
		case KindSkynetCC:
			s.Ports[PortSkynet] = PortAbnormal
		case KindBitcoinMine:
			s.Ports[PortHTTP] = PortOpen
			s.HTTPPorts = portsHTTPOnly
			s.Page = g.newPage(Page{
				Language:  corpus.LangEnglish,
				Topic:     corpus.TopicServices,
				WordCount: 40 + g.rng.Intn(60),
			})
		case KindWeb:
			s.Ports[PortHTTP] = PortOpen
			s.HTTPPorts = portsHTTPOnly
			s.Page = g.newPage(Page{
				Language:  corpus.LangEnglish,
				Topic:     e.Topic,
				WordCount: 100 + g.rng.Intn(300),
			})
		}
	}
}

// buildPhishingClones creates vanity-prefix imitations of the Silk Road
// address: a prefix-mined key makes the first characters of the onion
// address match, luring users who only check the beginning. (In reality
// a 7-character prefix costs ~2^35 key generations; here the permanent ID
// is constructed directly, so clones carry no identity key.)
func (g *generator) buildPhishingClones() {
	var silkroad *Service
	for _, s := range g.pop.Services {
		if s.Label == "SilkRoad" {
			silkroad = s
			break
		}
	}
	if silkroad == nil || g.cfg.PhishingClones <= 0 {
		return
	}
	prefix := string(silkroad.Address[:7])

	// The forum (second official address) plus the phishing clones.
	labels := make([]string, 0, g.cfg.PhishingClones+1)
	labels = append(labels, "SilkRoad(forum)")
	for i := 0; i < g.cfg.PhishingClones; i++ {
		labels = append(labels, "SilkRoad(phish)")
	}
	for _, label := range labels {
		id, err := onion.VanityPermanentID(prefix, g.rng)
		if err != nil {
			// The prefix comes from a valid generated address; fall back
			// to a random identity in the impossible error case.
			id = onion.GenerateKey(g.rng).PermanentID()
		}
		addr := onion.AddressFromID(id)
		if _, dup := g.pop.byAddr[addr]; dup {
			continue
		}
		s := g.svcArena.take()
		*s = Service{
			Seq:              g.seq,
			Key:              nil, // prefix-mined; no real key material
			Address:          addr,
			PermID:           id,
			Kind:             KindWeb,
			Label:            label,
			Ports:            map[int]PortState{PortHTTP: PortOpen},
			HTTPPorts:        portsHTTPOnly,
			DescriptorAtScan: true,
			OpenAtCrawl:      true,
		}
		topic := corpus.TopicDrugs
		if label == "SilkRoad(phish)" {
			topic = corpus.TopicCounterfeit // fake login pages harvest credentials
		}
		s.Page = g.newPage(Page{
			Language:  corpus.LangEnglish,
			Topic:     topic,
			WordCount: 60 + g.rng.Intn(120),
		})
		g.seq++
		g.pop.Services = append(g.pop.Services, s)
		g.pop.byAddr[s.Address] = s
	}
}

func (g *generator) buildBody() {
	cfg := g.cfg

	for i, n := 0, cfg.scaled(cfg.SkynetBots, 5); i < n; i++ {
		s := g.newService(KindSkynetBot)
		s.Label = "Skynet"
		s.DescriptorAtScan = true
		s.Ports[PortSkynet] = PortAbnormal
		s.OpenAtCrawl = true // bots are excluded from the crawl anyway
	}

	for i, n := 0, cfg.scaled(cfg.Web80Only, 5); i < n; i++ {
		s := g.newService(KindWeb)
		s.DescriptorAtScan = true
		s.Ports[PortHTTP] = PortOpen
		s.HTTPPorts = portsHTTPOnly
		s.Page = g.samplePage(false)
		s.OpenAtCrawl = g.rng.Float64() < cfg.SurviveWeb80
	}

	for i, n := 0, cfg.scaled(cfg.WebBoth, 3); i < n; i++ {
		s := g.newService(KindWeb)
		s.DescriptorAtScan = true
		s.Ports[PortHTTP] = PortOpen
		s.Ports[PortHTTPS] = PortOpen
		s.HTTPPorts = portsDualStack
		s.Page = g.sampleDualPage()
		s.Page.DupOn443 = true
		s.OpenAtCrawl = g.rng.Float64() < cfg.SurviveWeb443
	}

	for i, n := 0, cfg.scaled(cfg.Web443Only, 2); i < n; i++ {
		s := g.newService(KindWeb)
		s.DescriptorAtScan = true
		s.Ports[PortHTTPS] = PortOpen
		s.HTTPPorts = portsHTTPSOnly
		s.Page = g.samplePage(false)
		s.OpenAtCrawl = g.rng.Float64() < cfg.SurviveWeb443
	}

	longSSHProb := 2.0 / float64(cfg.SSHOnly) // the two ≥20-word banners
	for i, n := 0, cfg.scaled(cfg.SSHOnly, 3); i < n; i++ {
		s := g.newService(KindSSH)
		s.DescriptorAtScan = true
		s.Ports[PortSSH] = PortOpen
		s.HTTPPorts = portsSSHOnly // banner is readable over a raw probe
		wc := 4 + g.rng.Intn(10)
		if g.rng.Float64() < longSSHProb {
			wc = 25 + g.rng.Intn(20)
		}
		s.Page = g.newPage(Page{Language: corpus.LangEnglish, Topic: corpus.TopicOther, WordCount: wc})
		s.OpenAtCrawl = g.rng.Float64() < cfg.SurviveSSH
	}

	plain := []struct {
		kind  Kind
		port  int
		count int
	}{
		{KindTorChat, PortTorChat, cfg.scaled(cfg.TorChat, 2)},
		{KindIRC, PortIRC, cfg.scaled(cfg.IRC, 1)},
		{KindPort4050, Port4050, cfg.scaled(cfg.P4050, 1)},
	}
	for _, p := range plain {
		for i := 0; i < p.count; i++ {
			s := g.newService(p.kind)
			s.DescriptorAtScan = true
			s.Ports[p.port] = PortOpen
			s.OpenAtCrawl = g.rng.Float64() < cfg.SurviveMiscTCP
		}
	}

	nMisc := cfg.scaled(cfg.Misc, 4)
	nMiscHTTP := cfg.scaled(cfg.MiscHTTPCount, 2)
	nMisc8080 := cfg.scaled(cfg.Misc8080, 1)
	if nMiscHTTP > nMisc {
		nMiscHTTP = nMisc
	}
	for i := 0; i < nMisc; i++ {
		s := g.newService(KindMisc)
		s.DescriptorAtScan = true
		port := g.miscPorts[g.rng.Intn(len(g.miscPorts))]
		if i < nMisc8080 {
			port = PortAltHTTP
		}
		s.Ports[port] = PortOpen
		if i < nMiscHTTP {
			s.HTTPPorts = []int{port}
			s.Page = g.samplePage(false)
			s.OpenAtCrawl = true
		} else {
			s.OpenAtCrawl = g.rng.Float64() < cfg.SurviveMiscTCP
		}
	}

	for i, n := 0, cfg.scaled(cfg.Dark, 2); i < n; i++ {
		s := g.newService(KindDark)
		s.DescriptorAtScan = true
	}

	for i, n := 0, cfg.scaled(cfg.Dead, 5); i < n; i++ {
		s := g.newService(KindDark)
		s.DescriptorAtScan = false
	}

	// A small fraction of port-bearing services persistently time out
	// during scans — the paper could not reach 13% of ports, partly from
	// timeouts.
	for _, s := range g.pop.Services {
		if len(s.Ports) > 0 && s.Kind != KindGoldnetCC && g.rng.Float64() < 0.02 {
			s.ScanTimeout = true
		}
	}
}

// sampleDualPage draws page attributes for a dual-stack (80+443,
// TorHost-style hosted) service. These pages are rarely short — the
// paper's 1,108 port-443 duplicate exclusions imply most dual-stack
// bodies passed the 20-word filter — and are dominated by the hosting
// service's default page.
func (g *generator) sampleDualPage() *Page {
	r := g.rng.Float64()
	switch {
	case r < 0.05:
		return g.newPage(Page{
			Language:  corpus.LangEnglish,
			Topic:     corpus.TopicOther,
			WordCount: 3 + g.rng.Intn(17),
		})
	case r < 0.06:
		return g.newPage(Page{
			Language:  corpus.LangEnglish,
			Topic:     corpus.TopicOther,
			WordCount: 25 + g.rng.Intn(20),
			ErrorPage: true,
		})
	case r < 0.51:
		return g.newPage(Page{
			Language:       corpus.LangEnglish,
			Topic:          corpus.TopicAnonymity,
			WordCount:      120,
			TorhostDefault: true,
		})
	}
	lang := corpus.LangEnglish
	if g.rng.Float64() >= g.cfg.EnglishFrac {
		others := corpus.Languages()[1:]
		lang = others[g.rng.Intn(len(others))]
	}
	return g.newPage(Page{
		Language:  lang,
		Topic:     g.sampleTopic(),
		WordCount: 50 + g.rng.Intn(450),
	})
}

// samplePage draws page attributes from the calibrated category mix.
func (g *generator) samplePage(forceEnglish bool) *Page {
	cfg := g.cfg
	r := g.rng.Float64()
	switch {
	case r < cfg.PageShortFrac:
		return g.newPage(Page{
			Language:  corpus.LangEnglish,
			Topic:     corpus.TopicOther,
			WordCount: 3 + g.rng.Intn(17),
		})
	case r < cfg.PageShortFrac+cfg.PageErrorFrac:
		return g.newPage(Page{
			Language:  corpus.LangEnglish,
			Topic:     corpus.TopicOther,
			WordCount: 25 + g.rng.Intn(20),
			ErrorPage: true,
		})
	case r < cfg.PageShortFrac+cfg.PageErrorFrac+cfg.PageTorhostDefaultFrac:
		return g.newPage(Page{
			Language:       corpus.LangEnglish,
			Topic:          corpus.TopicAnonymity,
			WordCount:      120,
			TorhostDefault: true,
		})
	}
	lang := corpus.LangEnglish
	if !forceEnglish && g.rng.Float64() >= cfg.EnglishFrac {
		others := corpus.Languages()[1:]
		lang = others[g.rng.Intn(len(others))]
	}
	return g.newPage(Page{
		Language:  lang,
		Topic:     g.sampleTopic(),
		WordCount: 50 + g.rng.Intn(450),
	})
}

// sampleTopic draws a topic from the Fig. 2 distribution.
func (g *generator) sampleTopic() corpus.Topic {
	r := g.rng.Intn(100)
	acc := 0
	for _, t := range corpus.AllTopics() {
		acc += corpus.PaperTopicPercent[t]
		if r < acc {
			return t
		}
	}
	return corpus.TopicOther
}

// operatorCN formats the leaked operator DNS name
// "www.operatorNNNN.example.com" (NNNN zero-padded) by writing digits
// into a stack buffer: one string allocation, none of fmt.Sprintf's
// boxing and verb parsing.
func operatorCN(n int) string {
	b := []byte("www.operator0000.example.com")
	for i := 15; i >= 12; i-- {
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b)
}

// assignCerts distributes the Section III certificate profiles over all
// 443 listeners.
func (g *generator) assignCerts() {
	var owners []*Service
	for _, s := range g.pop.Services {
		if s.HasPort(PortHTTPS) {
			owners = append(owners, s)
		}
	}
	g.rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })

	nTorHost := g.cfg.scaled(g.cfg.CertTorHostCount, 1)
	nLeak := g.cfg.scaled(g.cfg.CertDNSLeakCount, 1)
	nMismatch := g.cfg.scaled(g.cfg.CertMismatchCount, 1)

	for i, s := range owners {
		switch {
		case i < nTorHost:
			s.Cert = Cert{Profile: CertTorHost, CommonName: TorHostCN, SelfSigned: true}
		case i < nTorHost+nLeak:
			s.Cert = Cert{
				Profile:    CertDNSLeak,
				CommonName: operatorCN(g.rng.Intn(10000)),
				SelfSigned: true,
			}
		case i < nTorHost+nLeak+nMismatch:
			other := onion.AddressFromKey(onion.GenerateKey(g.rng))
			s.Cert = Cert{Profile: CertSelfSignedMismatch, CommonName: other.String(), SelfSigned: true}
		default:
			s.Cert = Cert{Profile: CertSelfSignedMatch, CommonName: s.Address.String(), SelfSigned: true}
		}
	}
}

// assignPopularityTail gives power-law request rates to the anonymous
// body, interpolating through the Table II anchors.
func (g *generator) assignPopularityTail() {
	anchors := headAnchors()
	maxRank := anchors[len(anchors)-1][0]

	// Candidates: alive content-ish services without a head rate.
	var candidates []*Service
	for _, s := range g.pop.Services {
		if s.ExpectedRequests == 0 && s.DescriptorAtScan &&
			(s.Kind == KindWeb || s.Kind == KindMisc || s.Kind == KindSSH || s.Kind == KindDark) {
			candidates = append(candidates, s)
		}
	}
	g.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })

	n := g.cfg.scaled(g.cfg.PopularTail, 10)
	if n > len(candidates) {
		n = len(candidates)
	}
	head := len(TableIIHead())
	for i := 0; i < n; i++ {
		rank := head + 1 + i
		candidates[i].ExpectedRequests = g.tailRate(rank, anchors, maxRank)
	}
}

// tailRate interpolates the request count at the given rank: log-log
// linear between anchors, power-law extrapolation past the last anchor.
func (g *generator) tailRate(rank int, anchors [][2]int, maxAnchorRank int) float64 {
	if rank > maxAnchorRank {
		last := anchors[len(anchors)-1]
		v := float64(last[1]) * math.Pow(float64(rank)/float64(last[0]), -g.cfg.TailExponent)
		if v < 1 {
			v = 1
		}
		return v
	}
	for i := 1; i < len(anchors); i++ {
		r1, c1 := float64(anchors[i-1][0]), float64(anchors[i-1][1])
		r2, c2 := float64(anchors[i][0]), float64(anchors[i][1])
		if float64(rank) <= r2 {
			if r1 == r2 {
				return c2
			}
			alpha := math.Log(c2/c1) / math.Log(r2/r1)
			return c1 * math.Pow(float64(rank)/r1, alpha)
		}
	}
	return 1
}

// directoryLabels name the services that act as link directories (the
// Hidden-Wiki-style sites the paper's introduction discusses).
var directoryLabels = map[string]bool{
	"TorDir":          true,
	"Onion Bookmarks": true,
	"SilkRoad(wiki)":  true,
	"Tor Host":        true,
}

// buildLinkGraph wires the sparse hidden-service link graph: directory
// sites link to a small fraction of the population, ordinary sites to
// almost nobody.
func (g *generator) buildLinkGraph() {
	var linkable []*Service // descriptor-publishing, web-facing targets
	for _, s := range g.pop.Services {
		if s.DescriptorAtScan && len(s.HTTPPorts) > 0 {
			linkable = append(linkable, s)
		}
	}
	if len(linkable) == 0 {
		return
	}
	pick := func() onion.Address {
		return linkable[g.rng.Intn(len(linkable))].Address
	}
	for _, s := range g.pop.Services {
		switch {
		case directoryLabels[s.Label]:
			n := int(float64(len(g.pop.WithDescriptor())) * g.cfg.DirectoryLinkFraction)
			if n < 3 {
				n = 3
			}
			seen := make(map[onion.Address]bool, n)
			for len(s.LinksTo) < n {
				a := pick()
				if a == s.Address || seen[a] {
					continue
				}
				seen[a] = true
				s.LinksTo = append(s.LinksTo, a)
			}
		case s.Kind == KindWeb && s.Page != nil && !s.Page.TorhostDefault && !s.Page.ErrorPage:
			// Poisson(WebOutlinkMean) outlinks, inlined to keep hspop
			// free of a stats dependency cycle.
			n := 0
			for g.rng.Float64() < g.cfg.WebOutlinkMean/(1+float64(n)) && n < 4 {
				n++
			}
			for i := 0; i < n; i++ {
				if a := pick(); a != s.Address {
					s.LinksTo = append(s.LinksTo, a)
				}
			}
		}
	}
}

// ByAddress looks up a service by onion address.
func (p *Population) ByAddress(a onion.Address) (*Service, bool) {
	s, ok := p.byAddr[a]
	return s, ok
}

// Len returns the population size.
func (p *Population) Len() int { return len(p.Services) }

// WithDescriptor returns all services that publish descriptors during the
// scan window, in Services order. The list is computed once per
// population (every publish sweep starts from it, and DescriptorIDsAt
// indexes by it) and the returned slice aliases the cache — callers must
// not mutate it.
func (p *Population) WithDescriptor() []*Service {
	p.withDescOnce.Do(func() {
		out := make([]*Service, 0, len(p.Services))
		for _, s := range p.Services {
			if s.DescriptorAtScan {
				out = append(out, s)
			}
		}
		p.withDesc = out
	})
	return p.withDesc
}

// PopularServices returns all services with a nonzero expected request
// rate, most popular first. The ordering is computed once per population
// (every driven traffic window starts from it) and the returned slice
// aliases the cache — callers must not mutate it.
func (p *Population) PopularServices() []*Service {
	p.popularOnce.Do(func() {
		out := make([]*Service, 0, len(p.Services))
		for _, s := range p.Services {
			if s.ExpectedRequests > 0 {
				out = append(out, s)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].ExpectedRequests != out[j].ExpectedRequests {
				return out[i].ExpectedRequests > out[j].ExpectedRequests
			}
			return out[i].Seq < out[j].Seq
		})
		p.popular = out
	})
	return p.popular
}
