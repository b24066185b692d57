// Package experiments wires the substrates and pipelines into one harness
// per table and figure of the paper. Each experiment is registered in a
// declarative Registry (see registry.go) with its dependencies; a shared
// Env memoizes the substrates; artefacts render the same rows or series
// the paper reports. EXPERIMENTS.md maps registry names to paper
// artefacts. Study is the typed facade over the same registry for
// callers that want one experiment's concrete result.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"torhs/internal/core/content"
	"torhs/internal/core/deanon"
	"torhs/internal/core/popularity"
	"torhs/internal/core/scan"
	"torhs/internal/core/tracking"
	"torhs/internal/core/trawl"
	"torhs/internal/core/webcrawl"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/scenario"
	"torhs/internal/simnet"
)

// Config parameterises a full study.
type Config struct {
	// Seed drives every random component.
	Seed int64
	// Scale shrinks the hidden-service population (1.0 = the paper's
	// 39,824 services).
	Scale float64
	// Clients is the simulated client population for traffic-driven
	// experiments.
	Clients int
	// TrawlIPs / TrawlSteps size the collection fleet.
	TrawlIPs   int
	TrawlSteps int
	// Relays sizes the honest relay network for traffic experiments.
	Relays int
	// Workers is the per-stage worker count (<= 0: one per CPU): the
	// experiment scheduler admits up to Workers experiments at once,
	// and each experiment shards its own hot loop across Workers
	// goroutines, so the study's peak goroutine count can exceed the
	// knob when experiments overlap. For a fixed Seed the rendered
	// output is byte-identical at every worker count, so CacheKey leaves
	// it out and runs at different parallelism share cache entries.
	Workers int
	// BotFactor scales the Skynet bot population relative to the
	// paper's calibrated count (0 means 1.0, the paper's mix).
	// Scenario presets use it for botnet-heavy workloads.
	BotFactor float64
	// TrackingDays overrides the Section VII scenario window length in
	// days (0 = the tracking substrate's default).
	TrackingDays int
	// PopularityTopN is how many head rows Table II always prints
	// (below-top rows still appear when labelled). 0 means
	// DefaultPopularityTopN, the paper's 30.
	PopularityTopN int
}

// DefaultPopularityTopN is the paper's Table II head size.
const DefaultPopularityTopN = 30

// popularityTopN resolves the Table II head size, applying the default.
func (c Config) popularityTopN() int {
	if c.PopularityTopN > 0 {
		return c.PopularityTopN
	}
	return DefaultPopularityTopN
}

// CacheKey returns the canonical parameter string identifying every
// study input that determines experiment output. Workers is excluded on
// purpose: rendered output is byte-identical at every worker count (the
// determinism tests pin this), so runs at different parallelism share
// cache entries.
func (c Config) CacheKey() string {
	return fmt.Sprintf("seed=%d scale=%g clients=%d trawl-ips=%d trawl-steps=%d relays=%d bot-factor=%g tracking-days=%d popularity-topn=%d",
		c.Seed, c.Scale, c.Clients, c.TrawlIPs, c.TrawlSteps, c.Relays,
		c.BotFactor, c.TrackingDays, c.popularityTopN())
}

// DefaultConfig runs a laptop-scale study whose shapes match the paper.
func DefaultConfig(seed int64) Config {
	return ConfigFromSpec(scenario.MustLookup(scenario.Laptop), seed)
}

// ConfigFromSpec turns a declarative scenario preset into a study
// configuration. Workers stays 0 (one per CPU); set it separately.
func ConfigFromSpec(sp scenario.Spec, seed int64) Config {
	return Config{
		Seed:           seed,
		Scale:          sp.Scale,
		Clients:        sp.Clients,
		TrawlIPs:       sp.TrawlIPs,
		TrawlSteps:     sp.TrawlSteps,
		Relays:         sp.Relays,
		BotFactor:      sp.BotFactor,
		TrackingDays:   sp.TrackingDays,
		PopularityTopN: sp.PopularityTopN,
	}
}

// Study is the library facade over the paper registry: it owns one Env,
// renders every experiment (RunAll), and returns the typed results of
// the collection comparison and the popularity measurement. Results are
// memoized per Study — a second call returns the first call's
// (deterministic) artefact. The facade runs without cancellation
// (context.Background); callers that need deadlines or graceful
// interruption drive the registry via RunStudy instead.
type Study struct {
	env *Env
}

// NewStudy validates the configuration and eagerly builds the shared
// substrates (population, fabric, geo database) so construction errors
// surface here rather than mid-pipeline.
func NewStudy(cfg Config) (*Study, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := env.Fabric(context.Background()); err != nil { // builds the population too
		return nil, err
	}
	if _, err := env.GeoDB(); err != nil {
		return nil, err
	}
	return &Study{env: env}, nil
}

// Env exposes the study's shared substrate environment.
func (s *Study) Env() *Env { return s.env }

// Population exposes the generated landscape.
func (s *Study) Population() *hspop.Population {
	pop, _ := s.env.Population(context.Background()) // built by NewStudy
	return pop
}

// CollectionComparison quantifies the paper's motivating gap: link-graph
// crawling (Hidden-Wiki baseline) vs the trawling attack.
type CollectionComparison struct {
	Published       int
	CrawlDiscovered int
	CrawlFraction   float64
	TrawlCollected  int
	TrawlFraction   float64
}

// RunCollectionComparison executes the baseline link crawl and the
// trawling attack over the same population (E0, the introduction's
// motivation).
func (s *Study) RunCollectionComparison() (*CollectionComparison, error) {
	a, err := paperRegistry.artefact(context.Background(), s.env, ExpCollection)
	if err != nil {
		return nil, err
	}
	return a.(*collectionArtefact).res, nil
}

func (e *Env) runCollectionComparison(ctx context.Context) (*CollectionComparison, error) {
	fabric, err := e.Fabric(ctx)
	if err != nil {
		return nil, err
	}
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}
	wc, err := webcrawl.New(fabric, webcrawl.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var seeds []onion.Address
	for _, svc := range pop.Services {
		switch svc.Label {
		case "TorDir", "Onion Bookmarks", "SilkRoad(wiki)", "Tor Host":
			seeds = append(seeds, svc.Address)
		}
	}
	crawlRes := wc.Crawl(seeds)

	harvest, err := e.runTrawl(ctx, 4, false)
	if err != nil {
		return nil, err
	}

	published := len(pop.WithDescriptor())
	out := &CollectionComparison{
		Published:       published,
		CrawlDiscovered: len(crawlRes.Discovered),
		TrawlCollected:  len(harvest.Addresses),
	}
	if published > 0 {
		out.CrawlFraction = float64(out.CrawlDiscovered) / float64(published)
		out.TrawlFraction = float64(out.TrawlCollected) / float64(published)
	}
	return out, nil
}

// runTrawl deploys a trawling fleet on the relay network at the given
// seed offset and runs the collection, optionally driving client
// traffic. The trawler mutates its sim, so each caller owns its offset —
// which also keys the checkpoint set: two trawls in one study snapshot
// into disjoint sets ("ckpt-trawl-1", "ckpt-trawl-4").
func (e *Env) runTrawl(ctx context.Context, seedOffset int64, driveTraffic bool) (*trawl.Harvest, error) {
	sim, err := e.RelaySim(seedOffset)
	if err != nil {
		return nil, err
	}
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}
	geoDB, err := e.GeoDB()
	if err != nil {
		return nil, err
	}
	tCfg := trawl.DefaultConfig(e.cfg.Seed)
	tCfg.IPs = e.cfg.TrawlIPs
	tCfg.Steps = e.cfg.TrawlSteps
	tCfg.Workers = e.cfg.Workers
	tCfg.SecretTable = e.studySecretTable()
	if driveTraffic {
		tCfg.ClientConfig.Clients = e.cfg.Clients
	} else {
		tCfg.DriveTraffic = false
	}
	ck, every, resume, err := e.checkpointer(fmt.Sprintf("ckpt-trawl-%d", seedOffset))
	if err != nil {
		return nil, err
	}
	if ck != nil {
		tCfg.Checkpoint = ck
		tCfg.CheckpointEvery = every
		tCfg.Resume = resume
	}
	tr, err := trawl.NewTrawler(tCfg)
	if err != nil {
		return nil, err
	}
	start := relaynet.DefaultFleetConfig(e.cfg.Seed).Start.Add(trawlLead)
	tr.Deploy(sim, start)
	return tr.Run(ctx, sim, pop, geoDB, start)
}

// PrefixCluster is a group of onion addresses sharing a vanity prefix —
// the paper noticed 15 addresses with prefix "silkroa", at least one a
// phishing imitation of the Silk Road login page.
type PrefixCluster struct {
	Prefix    string
	Addresses []onion.Address
	Labels    []string
}

// runPrefixAudit groups the collected addresses by their first prefixLen
// characters and reports clusters of at least minSize addresses. The
// registered experiment uses (7, 3), the paper's parameters.
func (e *Env) runPrefixAudit(ctx context.Context, prefixLen, minSize int) ([]PrefixCluster, error) {
	if prefixLen <= 0 || prefixLen >= 16 {
		return nil, fmt.Errorf("experiments: prefix length %d out of (0,16)", prefixLen)
	}
	if minSize < 2 {
		return nil, fmt.Errorf("experiments: cluster size %d must be >= 2", minSize)
	}
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]*hspop.Service)
	for _, svc := range pop.Services {
		if !svc.DescriptorAtScan {
			continue
		}
		p := string(svc.Address[:prefixLen])
		groups[p] = append(groups[p], svc)
	}
	var out []PrefixCluster
	for prefix, members := range groups {
		if len(members) < minSize {
			continue
		}
		c := PrefixCluster{Prefix: prefix}
		for _, m := range members {
			c.Addresses = append(c.Addresses, m.Address)
			c.Labels = append(c.Labels, m.Label)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Addresses) != len(out[j].Addresses) {
			return len(out[i].Addresses) > len(out[j].Addresses)
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out, nil
}

// runScan executes E1 (Fig. 1) and the certificate audit (E2).
func (e *Env) runScan(ctx context.Context) (*scan.Result, *scan.CertAudit, error) {
	fabric, err := e.Fabric(ctx)
	if err != nil {
		return nil, nil, err
	}
	addrs, err := e.addresses(ctx)
	if err != nil {
		return nil, nil, err
	}
	scCfg := scan.DefaultConfig(e.cfg.Seed)
	scCfg.Workers = e.cfg.Workers
	sc, err := scan.New(fabric, scCfg)
	if err != nil {
		return nil, nil, err
	}
	res := sc.ScanAll(addrs)
	return res, sc.AuditCertificates(res), nil
}

// runContent executes E3–E5 (Table I, language mix, Fig. 2), feeding the
// crawl with the scan's destinations.
func (e *Env) runContent(ctx context.Context, scanRes *scan.Result) (*content.Result, error) {
	fabric, err := e.Fabric(ctx)
	if err != nil {
		return nil, err
	}
	crCfg := content.DefaultConfig()
	crCfg.Workers = e.cfg.Workers
	cr, err := content.New(fabric, crCfg)
	if err != nil {
		return nil, err
	}
	return cr.Crawl(content.DestinationsFromPorts(scanRes.PerAddress))
}

// PopularityResult bundles E6 (Table II) artefacts.
type PopularityResult struct {
	Harvest    *trawl.Harvest
	Resolution *popularity.Resolution
	Ranking    []popularity.RankEntry
	// PublishedEver / RequestedPublished reproduce the "only 10% of
	// published descriptors were ever requested" observation.
	PublishedEver      int
	RequestedPublished int
}

// RunPopularity executes the trawl with traffic and resolves the request
// log (E6, Table II).
func (s *Study) RunPopularity() (*PopularityResult, error) {
	a, err := paperRegistry.artefact(context.Background(), s.env, ExpPopularity)
	if err != nil {
		return nil, err
	}
	return a.(*popularityArtefact).res, nil
}

func (e *Env) runPopularity(ctx context.Context) (*PopularityResult, error) {
	harvest, err := e.runTrawl(ctx, 1, true)
	if err != nil {
		return nil, err
	}
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}

	// Resolve over a ±days window, as the paper does (28 Jan – 8 Feb).
	start := relaynet.DefaultFleetConfig(e.cfg.Seed).Start.Add(trawlLead)
	ix, err := popularity.BuildIndexTable(harvest.PermIDs,
		start.Add(-popularityWindow), start.Add(popularityWindow), e.cfg.Workers,
		e.studySecretTable())
	if err != nil {
		return nil, err
	}
	res := popularity.ResolveLog(harvest.Log, ix)
	ranking := popularity.Rank(res, func(a onion.Address) string {
		if svc, ok := pop.ByAddress(a); ok {
			return svc.Label
		}
		return ""
	})
	return &PopularityResult{
		Harvest:    harvest,
		Resolution: res,
		Ranking:    ranking,
	}, nil
}

// runDeanon executes E7 (Fig. 3): deanonymise the clients of the most
// popular Goldnet front.
func (e *Env) runDeanon(ctx context.Context) (*deanon.Report, error) {
	doc, err := e.Consensus(2)
	if err != nil {
		return nil, err
	}
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}
	geoDB, err := e.GeoDB()
	if err != nil {
		return nil, err
	}
	// The paper targets the most popular hidden service, the rank-1
	// Goldnet C&C front — the first Goldnet-labelled Table II head
	// entry, not whatever happens to sit at index 0.
	var target *hspop.Service
	for _, svc := range pop.Services {
		if svc.Label == "Goldnet" {
			target = svc
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("experiments: no Goldnet front in population (Table II head missing)")
	}
	// The attacker sees only its own directories (and guards), so the
	// network simulates only those directories (Section VI).
	now := doc.ValidAfter
	netCfg := simnet.DefaultConfig(e.cfg.Seed)
	netCfg.Clients = e.cfg.Clients
	netCfg.Workers = e.cfg.Workers
	netCfg.SecretTable = e.studySecretTable()
	netCfg.Observed = deanon.AttackerDirs(doc.Ring(), target, now)
	net, err := simnet.NewNetwork(doc, geoDB, netCfg)
	if err != nil {
		return nil, err
	}
	net.PublishAll(pop, now)
	return deanon.Run(ctx, net, pop, target, now, deanon.DefaultConfig(e.cfg.Seed))
}

// runServiceDeanon executes the Section II-B dependency experiment: the
// original [8] guard attack against the hidden service itself, applied to
// the Silk Road stand-in over a month of daily descriptor uploads.
func (e *Env) runServiceDeanon(ctx context.Context) (*deanon.ServiceReport, error) {
	doc, err := e.Consensus(3)
	if err != nil {
		return nil, err
	}
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}
	geoDB, err := e.GeoDB()
	if err != nil {
		return nil, err
	}
	netCfg := simnet.DefaultConfig(e.cfg.Seed)
	netCfg.Clients = 10 // client traffic is irrelevant here
	netCfg.Workers = e.cfg.Workers
	netCfg.SecretTable = e.studySecretTable()
	net, err := simnet.NewNetwork(doc, geoDB, netCfg)
	if err != nil {
		return nil, err
	}

	var target *hspop.Service
	for _, svc := range pop.Services {
		if svc.Label == "SilkRoad" {
			target = svc
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("experiments: no SilkRoad service in population")
	}
	return deanon.RunServiceSide(net, target, doc.ValidAfter, deanon.DefaultServiceConfig(e.cfg.Seed))
}

// TrackingResult bundles E8 artefacts.
type TrackingResult struct {
	Scenario *tracking.Scenario
	Report   *tracking.Report
}

// runTracking executes E8: build the Silk Road consensus history with
// planted trackers and detect them.
func (e *Env) runTracking(ctx context.Context) (*TrackingResult, error) {
	// One config for both the scenario build and the analysis window, so
	// the two can never silently diverge.
	scCfg := tracking.DefaultScenarioConfig(e.cfg.Seed)
	if e.cfg.TrackingDays > 0 {
		scCfg.Days = e.cfg.TrackingDays
	}
	an, err := tracking.NewAnalyzer(tracking.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The sweep pulls consensus windows through a sliding ring re-derived
	// from seed: the scenario's History is never materialized, so peak
	// live heap is bounded by the ring rather than the window length.
	sc, src, err := tracking.NewScenarioSource(scCfg, 0)
	if err != nil {
		return nil, err
	}
	// The tracking window is disjoint from the traffic experiments', so
	// it gets its own memoized table rather than the study-wide one.
	an.SetSecretTable(e.SecretTable(sc.Start, sc.End))
	rep, err := an.Analyze(ctx, src, sc.Target)
	if err != nil {
		return nil, err
	}
	return &TrackingResult{Scenario: sc, Report: rep}, nil
}

// RunAll executes every registered experiment and renders the results to
// w: the registry schedules independent experiments concurrently (the
// declared scan→content edge chains, everything else overlaps), and the
// artefacts render in stable paper order once all finish. For a fixed
// seed the output is byte-identical at every Workers value and equals
// the concatenation of every per-experiment subset run.
func (s *Study) RunAll(w io.Writer) error {
	_, err := paperRegistry.RunStudy(context.Background(), s.env, RunOptions{}, w)
	return err
}
