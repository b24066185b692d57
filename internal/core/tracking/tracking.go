// Package tracking implements the paper's Section VII: statistical
// analysis of consensus history to detect entities that positioned
// themselves as a hidden service's responsible directories. Five rules
// are applied, exactly as the paper describes:
//
//  1. A relay responsible for the target far more often than chance
//     (binomial μ+3σ outlier rule with p = 6/N_hsdir).
//  2. A relay that changed its fingerprint shortly before becoming
//     responsible.
//  3. A suspiciously small descriptor-ID-to-fingerprint ring distance
//     (the avg_dist/distance ratio; >100 suspicious, >10,000 strong).
//  4. A high number of fingerprint switches in a short period.
//  5. A relay responsible for many consecutive time periods, or becoming
//     responsible at the minimum possible uptime (25 h after appearing).
package tracking

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/fault"
	"torhs/internal/onion"
	"torhs/internal/relay"
	"torhs/internal/stats"
)

// Config parameterises the detector; defaults follow the paper.
type Config struct {
	// SigmaK is the binomial outlier multiplier (3 in the paper).
	SigmaK float64
	// RatioSuspicious / RatioStrong are the distance-ratio thresholds
	// (the paper calls >100 "close" and singles out relays crossing
	// 10,000).
	RatioSuspicious float64
	RatioStrong     float64
	// FreshFlagWindow flags relays that become responsible with uptime
	// in [25h, 25h+window) — the minimum achievable.
	FreshFlagWindow time.Duration
	// SwitchLead is how soon after a fingerprint switch a responsibility
	// must follow to count as "switched into position".
	SwitchLead time.Duration
	// MinSwitches is the switch count considered unusual (rule 4).
	MinSwitches int
	// HSDirUptime is the flag threshold (for rule 5's minimum-uptime
	// check).
	HSDirUptime time.Duration
	// Workers is ignored: the sweep is one sequential fold, which a
	// streamed source cannot outrun by sharding (each shard would replay
	// its prefix from seed). The field stays only for callers that still
	// set it.
	Workers int
}

// DefaultConfig returns the paper's thresholds.
func DefaultConfig() Config {
	return Config{
		SigmaK:          3,
		RatioSuspicious: 100,
		RatioStrong:     10000,
		FreshFlagWindow: 24 * time.Hour,
		SwitchLead:      72 * time.Hour,
		MinSwitches:     2,
		HSDirUptime:     25 * time.Hour,
	}
}

// Occurrence is one (day, relay) responsibility observation.
type Occurrence struct {
	At          time.Time
	Fingerprint onion.Fingerprint
	Replica     int
	// Ratio is avg_dist/distance for this occurrence.
	Ratio float64
	// Uptime is the relay's consensus-reported uptime that day.
	Uptime time.Duration
}

// RelayReport aggregates one relay identity's behaviour toward the
// target.
type RelayReport struct {
	RelayID      relay.ID
	Nicknames    []string
	IPs          []string
	Fingerprints int
	Occurrences  []Occurrence

	// TimesResponsible counts distinct days the relay was responsible.
	TimesResponsible int
	// Threshold is the μ+kσ suspicion bound for this window.
	Threshold float64
	// MaxRatio is the largest distance ratio observed.
	MaxRatio float64
	// MaxConsecutive is the longest run of consecutive responsible days.
	MaxConsecutive int
	// Switches counts fingerprint changes within the window.
	Switches int
	// SwitchesIntoPosition counts switches followed by responsibility
	// within SwitchLead.
	SwitchesIntoPosition int
	// FreshFlagResponsible counts days the relay was responsible at the
	// minimum possible uptime.
	FreshFlagResponsible int

	Suspicious bool
	Reasons    []string
}

// Episode is a cluster of suspicious relays that acted together — the
// paper groups trackers by shared nickname parts and IP addresses.
type Episode struct {
	// Label is the shared nickname stem (or IP set).
	Label string
	// RelayIDs lists the members.
	RelayIDs []relay.ID
	// From / To bound the episode's responsibility observations.
	From, To time.Time
	// FullTakeover marks an episode whose members held all six
	// responsible slots on at least one day.
	FullTakeover bool
}

// Report is the full analysis outcome.
type Report struct {
	From, To time.Time
	// Days is the number of consensuses analysed.
	Days int
	// MeanHSDirs is the average HSDir-ring size across the window.
	MeanHSDirs float64
	// Relays reports every relay that was ever responsible, most
	// frequent first.
	Relays []RelayReport
	// Suspicious lists indexes into Relays.
	Suspicious []int
	// Episodes clusters suspicious relays.
	Episodes []Episode
}

// Analyzer applies the Section VII rules.
type Analyzer struct {
	cfg Config

	// secrets optionally shares precomputed rend-spec secret-id-parts
	// for the target's per-day descriptor-ID derivations (set via
	// SetSecretTable; the experiments Env passes its shared table).
	// Derivations outside the table fall back to direct computation.
	secrets *onion.SecretIDTable
}

// SetSecretTable shares a precomputed secret-id-part table with the
// analyzer, so the per-consensus descriptor-ID derivations reuse secrets
// other pipeline stages already computed. A nil table reverts to direct
// derivation.
func (a *Analyzer) SetSecretTable(t *onion.SecretIDTable) { a.secrets = t }

// NewAnalyzer validates the configuration.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if cfg.SigmaK <= 0 {
		return nil, fmt.Errorf("tracking: sigma multiplier %v must be positive", cfg.SigmaK)
	}
	if cfg.RatioSuspicious <= 1 || cfg.RatioStrong < cfg.RatioSuspicious {
		return nil, fmt.Errorf("tracking: ratio thresholds %v/%v invalid",
			cfg.RatioSuspicious, cfg.RatioStrong)
	}
	if cfg.MinSwitches <= 0 {
		return nil, fmt.Errorf("tracking: min switches %d must be positive", cfg.MinSwitches)
	}
	return &Analyzer{cfg: cfg}, nil
}

// relayState accumulates per-relay evidence during the sweep. The layout
// is tuned for the common honest relay — one fingerprint, one nickname,
// one IP — which needs no per-relay heap allocations at all: firsts are
// stored inline, overflow slices stay nil, and responsibility statistics
// (distinct days, longest consecutive run) are tracked online because
// documents arrive in ValidAfter order.
type relayState struct {
	report RelayReport

	seen   bool
	lastFP onion.Fingerprint
	// fps is allocated on the first fingerprint switch and seeded with
	// the pre-switch fingerprint; while nil the distinct set is {lastFP}.
	fps        []onion.Fingerprint
	nick0, ip0 string
	extraNicks []string
	extraIPs   []string
	switchAts  []time.Time

	lastRespDay    int64 // unix day of the latest responsibility, noRespDay if none
	curRun, maxRun int   // consecutive responsible days
	respCount      int   // distinct responsible days

	occCount, occOff, occFilled int // global occurrence-list bookkeeping
}

// stateTable maps relay IDs to their accumulating state. Simulation IDs
// are small and dense, so the common path is a direct slice index (a map
// keeps sparse or negative IDs working); states are arena-allocated in
// fixed blocks so a sweep over thousands of relay identities costs a
// handful of heap allocations rather than one per relay.
type stateTable struct {
	dense  []*relayState
	sparse map[relay.ID]*relayState
	arena  []relayState
	used   int
	all    []*relayState // creation order
}

// denseIDLimit bounds the ID range backed by the dense slice.
const denseIDLimit = 1 << 20

// noRespDay is the never-responsible sentinel for lastRespDay; math.MinInt64
// cannot collide with any real unix day (including negative pre-epoch ones).
const noRespDay = math.MinInt64

func (t *stateTable) get(id relay.ID) *relayState {
	if id >= 0 && id < denseIDLimit {
		if int(id) < len(t.dense) {
			if st := t.dense[id]; st != nil {
				return st
			}
		} else {
			size := 2 * len(t.dense)
			if size < 1024 {
				size = 1024
			}
			for size <= int(id) {
				size *= 2
			}
			grown := make([]*relayState, size)
			copy(grown, t.dense)
			t.dense = grown
		}
		st := t.alloc(id)
		t.dense[id] = st
		return st
	}
	if st := t.sparse[id]; st != nil {
		return st
	}
	if t.sparse == nil {
		t.sparse = make(map[relay.ID]*relayState)
	}
	st := t.alloc(id)
	t.sparse[id] = st
	return st
}

func (t *stateTable) alloc(id relay.ID) *relayState {
	const block = 256
	if t.used == len(t.arena) {
		t.arena = make([]relayState, block) // previous block stays alive via dense/sparse/all
		t.used = 0
	}
	st := &t.arena[t.used]
	t.used++
	st.report.RelayID = id
	st.lastRespDay = noRespDay
	t.all = append(t.all, st)
	return st
}

// markResponsible folds one responsibility observation into the online
// day statistics. Days arrive in nondecreasing order (documents are
// swept in ValidAfter order), so distinct-day and consecutive-run counts
// need no per-relay day set.
func (st *relayState) markResponsible(day int64) {
	if day == st.lastRespDay {
		return
	}
	if day == st.lastRespDay+1 {
		st.curRun++
	} else {
		st.curRun = 1
	}
	if st.curRun > st.maxRun {
		st.maxRun = st.curRun
	}
	st.lastRespDay = day
	st.respCount++
}

// appendFPAbsent appends fp unless already present (the slice stays tiny:
// one entry per distinct fingerprint a single relay identity ever used).
func appendFPAbsent(s []onion.Fingerprint, fp onion.Fingerprint) []onion.Fingerprint {
	for _, have := range s {
		if have == fp {
			return s
		}
	}
	return append(s, fp)
}

func appendStrAbsent(s []string, v string) []string {
	for _, have := range s {
		if have == v {
			return s
		}
	}
	return append(s, v)
}

// sortedWithFirst merges the inline first value with the overflow set and
// sorts, reproducing the sorted-distinct-set semantics of the reports.
func sortedWithFirst(first string, extra []string) []string {
	out := make([]string, 0, 1+len(extra))
	out = append(out, first)
	out = append(out, extra...)
	sort.Strings(out)
	return out
}

// DocSource hands out the consensus documents of one analysis window in
// ascending ValidAfter order. It is the seam between the sweep (a pure
// left fold, document at a time) and where the documents come from: a
// materialized History slice, or a streaming source that re-derives
// windows from seed through a bounded sliding ring (ScenarioSource).
// Sequential access is O(1) for every implementation; rewinding a
// streaming source replays from seed.
type DocSource interface {
	// Len returns the number of documents in the window.
	Len() int
	// At returns document i. Consumers must not retain the returned
	// document past their fold of it — a streaming source recycles ring
	// slots as the window advances (the torhsvet windowring analyzer
	// audits consumers for retained doc pointers).
	At(i int) (*consensus.Document, error)
}

// Docs adapts a materialized document slice — typically
// History.Range(from, to) — to DocSource.
type Docs []*consensus.Document

// Len implements DocSource.
func (d Docs) Len() int { return len(d) }

// At implements DocSource.
func (d Docs) At(i int) (*consensus.Document, error) { return d[i], nil }

// Analyze sweeps every document of src and scores every relay that was
// ever responsible for the target. It is the one sweep: a materialized
// window passes Docs(h.Range(from, to)), the study streams through
// ScenarioSource, and the report is the same for the same document
// sequence. The sweep is a left fold over documents in ValidAfter order,
// so a resumed study simply refolds from document zero — no more than
// the replay a streamed source pays to reach any later document anyway.
//
// The document is the cancellation unit: ctx is observed, and the
// tracking.window fault site hit, before every fold.
//
//torhs:cancelpoint
func (a *Analyzer) Analyze(ctx context.Context, src DocSource, target onion.PermanentID) (*Report, error) {
	n := src.Len()
	if n == 0 {
		return nil, fmt.Errorf("tracking: empty document source")
	}
	sw := newSweep(a)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := fault.Hit(fault.SiteTrackingWindow); err != nil {
			return nil, fmt.Errorf("tracking: window %d: %w", i, err)
		}
		doc, err := src.At(i)
		if err != nil {
			return nil, fmt.Errorf("tracking: window %d: source: %w", i, err)
		}
		sw.observeDoc(doc, target)
	}
	return a.report(&sw, n), nil
}

// AnalyzeSource is Analyze under its former signature, kept for callers
// outside this module. The sweep keeps no checkpoints, so it refuses
// anything but a nil checkpointer, a zero cadence and no resume.
func (a *Analyzer) AnalyzeSource(ctx context.Context, src DocSource, target onion.PermanentID, ckpt any, every int, resume bool) (*Report, error) {
	if ckpt != nil || every != 0 || resume {
		return nil, fmt.Errorf("tracking: the sweep takes no checkpointer, cadence or resume")
	}
	return a.Analyze(ctx, src, target)
}

// report runs the wrap-up over a finished sweep of n documents:
// thresholds, per-relay occurrence carving, rule judging, ordering,
// episode clustering. The window bounds come from the sweep's own
// first/last ValidAfter observations, captured during the fold — a
// streaming source's documents are already gone by wrap-up time.
func (a *Analyzer) report(sw *sweep, n int) *Report {
	states, totalHSDirs, occs, occStates := &sw.states, sw.totalHSDirs, sw.occs, sw.occStates

	meanHSDirs := float64(totalHSDirs) / float64(n)
	binom := stats.Binomial{
		N: n,
		P: float64(onion.Replicas*onion.SpreadPerReplica) / meanHSDirs,
	}
	threshold := binom.OutlierThreshold(a.cfg.SigmaK)

	rep := &Report{
		From:       sw.firstVA,
		To:         sw.lastVA,
		Days:       n,
		MeanHSDirs: meanHSDirs,
	}

	// Carve the per-relay occurrence slices out of one backing array, in
	// chronological order (the global list already is).
	backing := make([]Occurrence, len(occs))
	cum := 0
	for _, st := range states.all {
		st.occOff = cum
		cum += st.occCount
	}
	for i, st := range occStates {
		backing[st.occOff+st.occFilled] = occs[i]
		st.occFilled++
	}

	for _, st := range states.all {
		if st.occCount == 0 {
			continue
		}
		r := &st.report
		r.Occurrences = backing[st.occOff : st.occOff+st.occCount]
		r.Nicknames = sortedWithFirst(st.nick0, st.extraNicks)
		r.IPs = sortedWithFirst(st.ip0, st.extraIPs)
		if st.fps != nil {
			r.Fingerprints = len(st.fps)
		} else if st.seen {
			r.Fingerprints = 1
		}
		r.TimesResponsible = st.respCount
		r.Threshold = threshold
		r.MaxConsecutive = st.maxRun
		r.SwitchesIntoPosition = countSwitchesIntoPosition(st.switchAts, r.Occurrences, a.cfg.SwitchLead)

		a.judge(r)
		rep.Relays = append(rep.Relays, *r)
	}

	sort.Slice(rep.Relays, func(i, j int) bool {
		if rep.Relays[i].TimesResponsible != rep.Relays[j].TimesResponsible {
			return rep.Relays[i].TimesResponsible > rep.Relays[j].TimesResponsible
		}
		return rep.Relays[i].RelayID < rep.Relays[j].RelayID
	})
	for i := range rep.Relays {
		if rep.Relays[i].Suspicious {
			rep.Suspicious = append(rep.Suspicious, i)
		}
	}
	rep.Episodes = a.clusterEpisodes(rep)
	return rep
}

// sweep is the accumulation state of one Analyze pass over a
// consensus range. Occurrences accumulate in one chronological global
// list (plus the owning state per entry) and are carved into per-relay
// slices at wrap-up, so the sweep never grows hundreds of tiny slices.
type sweep struct {
	a           *Analyzer
	states      stateTable
	totalHSDirs int
	occs        []Occurrence
	occStates   []*relayState
	respBuf     []onion.Fingerprint
	// firstVA / lastVA bound the folded documents' ValidAfter instants —
	// the report's From/To — captured during the fold so the wrap-up
	// never needs the (possibly already recycled) documents themselves.
	firstVA, lastVA time.Time
}

// newSweep returns an empty sweep for the analyzer.
func newSweep(a *Analyzer) sweep {
	return sweep{
		a: a,
		// Scratch buffer reused across every (document, replica) pair:
		// the responsible set is consumed before the next
		// ResponsibleInto call.
		respBuf: make([]onion.Fingerprint, 0, onion.SpreadPerReplica),
	}
}

// observeDoc folds one consensus document into the sweep: fingerprint
// switches for every relay identity, and responsibility occurrences for
// the target's descriptor IDs. This is Analyze's per-document
// accumulator — the tracking pipeline's hot loop over a multi-month
// History — and stays allocation-free in steady state (everything grows
// amortized or reuses scratch).
func (sw *sweep) observeDoc(doc *consensus.Document, target onion.PermanentID) {
	// Window bounds are captured before the empty-HSDir early return:
	// every folded document widens the report's [From, To], whether or
	// not it contributed responsibilities.
	if sw.firstVA.IsZero() {
		sw.firstVA = doc.ValidAfter
	}
	sw.lastVA = doc.ValidAfter
	hsdirFPs := doc.HSDirs()
	if len(hsdirFPs) == 0 {
		return
	}
	sw.totalHSDirs += len(hsdirFPs)
	// The ring and average gap are cached on the document: repeated
	// analyses (and other pipelines) share one sorted ring per
	// consensus instead of rebuilding it per sweep.
	ring := doc.Ring()
	avgGap := doc.AverageGap()

	// Track fingerprint switches for every relay identity, whether
	// or not it was ever responsible: a tracker mines its key days
	// *before* the responsibility shows up.
	for i := range doc.Entries {
		e := &doc.Entries[i]
		st := sw.states.get(e.RelayID)
		if !st.seen {
			st.seen = true
			st.lastFP = e.Fingerprint
			st.nick0 = e.Nickname
			st.ip0 = e.IP
			continue
		}
		if e.Fingerprint != st.lastFP {
			if st.fps == nil {
				st.fps = append(make([]onion.Fingerprint, 0, 4), st.lastFP)
			}
			st.fps = appendFPAbsent(st.fps, e.Fingerprint)
			st.report.Switches++
			st.switchAts = append(st.switchAts, doc.ValidAfter)
			st.lastFP = e.Fingerprint
		}
		if e.Nickname != st.nick0 {
			st.extraNicks = appendStrAbsent(st.extraNicks, e.Nickname)
		}
		if e.IP != st.ip0 {
			st.extraIPs = appendStrAbsent(st.extraIPs, e.IP)
		}
	}

	day := doc.ValidAfter.Unix() / 86400
	var ids [onion.Replicas]onion.DescriptorID
	if sw.a.secrets != nil {
		ids = sw.a.secrets.DescriptorIDsAt(target, doc.ValidAfter)
	} else {
		ids = onion.DescriptorIDs(target, doc.ValidAfter)
	}
	for replica, descID := range ids {
		sw.respBuf = ring.ResponsibleInto(sw.respBuf[:0], descID, onion.SpreadPerReplica)
		for _, fp := range sw.respBuf {
			entry, ok := doc.Lookup(fp)
			if !ok {
				continue
			}
			st := sw.states.get(entry.RelayID)
			ratio := onion.RingRatio(avgGap, onion.Distance(descID, fp))
			sw.occs = append(sw.occs, Occurrence{
				At:          doc.ValidAfter,
				Fingerprint: fp,
				Replica:     replica,
				Ratio:       ratio,
				Uptime:      entry.Uptime,
			})
			sw.occStates = append(sw.occStates, st)
			st.occCount++
			if ratio > st.report.MaxRatio {
				st.report.MaxRatio = ratio
			}
			if entry.Uptime >= sw.a.cfg.HSDirUptime &&
				entry.Uptime < sw.a.cfg.HSDirUptime+sw.a.cfg.FreshFlagWindow {
				st.report.FreshFlagResponsible++
			}
			st.markResponsible(day)
		}
	}
}

// judge applies the five rules and records the reasons.
func (a *Analyzer) judge(r *RelayReport) {
	if float64(r.TimesResponsible) > r.Threshold {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("responsible %d times, above mu+%.0fsigma=%.2f",
				r.TimesResponsible, a.cfg.SigmaK, r.Threshold))
	}
	if r.SwitchesIntoPosition > 0 {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("%d fingerprint switch(es) shortly before becoming responsible",
				r.SwitchesIntoPosition))
	}
	switch {
	case r.MaxRatio > a.cfg.RatioStrong:
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("distance ratio %.0f above strong threshold %.0f",
				r.MaxRatio, a.cfg.RatioStrong))
	case r.MaxRatio > a.cfg.RatioSuspicious:
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("distance ratio %.0f above threshold %.0f",
				r.MaxRatio, a.cfg.RatioSuspicious))
	}
	if r.Switches >= a.cfg.MinSwitches {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("%d fingerprint switches in window", r.Switches))
	}
	if r.FreshFlagResponsible > 0 {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("responsible at minimum uptime %d time(s)", r.FreshFlagResponsible))
	}
	if r.MaxConsecutive >= 5 {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("responsible %d consecutive time periods", r.MaxConsecutive))
	}

	// A single weak signal is not enough: the paper requires either a
	// strong positional signal (ratio, switch-into-position) or repeated
	// anomalies.
	strong := r.MaxRatio > a.cfg.RatioSuspicious || r.SwitchesIntoPosition > 0
	repeated := len(r.Reasons) >= 2
	r.Suspicious = (strong || repeated) && len(r.Reasons) > 0
}

func countSwitchesIntoPosition(switches []time.Time, occs []Occurrence, lead time.Duration) int {
	count := 0
	for _, sw := range switches {
		for _, o := range occs {
			d := o.At.Sub(sw)
			if d >= 0 && d <= lead {
				count++
				break
			}
		}
	}
	return count
}

// nicknameStem strips trailing digits and separators, so "tracknet03"
// and "tracknet11" share the stem "tracknet".
func nicknameStem(n string) string {
	return strings.TrimRight(n, "0123456789-_")
}

// clusterEpisodes groups suspicious relays by shared nickname stem. The
// episode's time bounds come from *positionally suspicious* occurrences
// (ratio above the threshold): any relay is occasionally responsible by
// pure chance, and those chance days must not stretch the episode.
func (a *Analyzer) clusterEpisodes(rep *Report) []Episode {
	groups := make(map[string][]int)
	for _, idx := range rep.Suspicious {
		r := rep.Relays[idx]
		stem := ""
		if len(r.Nicknames) > 0 {
			stem = nicknameStem(r.Nicknames[0])
		}
		groups[stem] = append(groups[stem], idx)
	}
	var episodes []Episode
	for stem, members := range groups {
		ep := Episode{Label: stem}
		perDaySlots := make(map[int64]int)
		deliberate := 0
		for _, idx := range members {
			r := rep.Relays[idx]
			ep.RelayIDs = append(ep.RelayIDs, r.RelayID)
			for _, o := range r.Occurrences {
				if o.Ratio <= a.cfg.RatioSuspicious {
					continue
				}
				deliberate++
				if ep.From.IsZero() || o.At.Before(ep.From) {
					ep.From = o.At
				}
				if o.At.After(ep.To) {
					ep.To = o.At
				}
				perDaySlots[o.At.Unix()/86400]++
			}
		}
		if deliberate == 0 {
			// No positional evidence; fall back to all occurrences.
			for _, idx := range members {
				for _, o := range rep.Relays[idx].Occurrences {
					if ep.From.IsZero() || o.At.Before(ep.From) {
						ep.From = o.At
					}
					if o.At.After(ep.To) {
						ep.To = o.At
					}
				}
			}
		}
		for _, slots := range perDaySlots {
			if slots >= onion.Replicas*onion.SpreadPerReplica {
				ep.FullTakeover = true
				break
			}
		}
		sort.Slice(ep.RelayIDs, func(i, j int) bool { return ep.RelayIDs[i] < ep.RelayIDs[j] })
		episodes = append(episodes, ep)
	}
	sort.Slice(episodes, func(i, j int) bool {
		if !episodes[i].From.Equal(episodes[j].From) {
			return episodes[i].From.Before(episodes[j].From)
		}
		return episodes[i].Label < episodes[j].Label
	})
	return episodes
}
