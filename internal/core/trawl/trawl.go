// Package trawl implements the paper's collection methodology: the
// shadow-relay ("shadowing") attack of Section II-A. An attacker rents a
// small number of IP addresses, runs many relays on each, waits 25 hours
// so *all* of them earn the HSDir flag, and then rotates reachability so
// that fresh pairs of relays occupy the consensus slots each step. Over a
// 24-hour window the attacker's relays sweep the HSDir ring, receiving
// descriptor uploads (onion addresses) and client descriptor requests
// (popularity data) for a large fraction of all hidden services.
package trawl

import (
	"context"
	"fmt"
	"slices"
	"time"

	"torhs/internal/fault"
	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relay"
	"torhs/internal/relaynet"
	"torhs/internal/simnet"
)

// Checkpointer persists per-step accumulator snapshots so a killed run
// can fold forward from its last completed step. The contract matches
// resultstore.CheckpointSet; the interface keeps trawl below the store
// in the import graph. The context is per call — implementations must
// not retain it — and the cancellation flush passes an uncancellable
// context so the final snapshot always lands.
type Checkpointer interface {
	// Save snapshots state after window completed. It must not retain
	// state after returning: Run reuses the snapshot's buffers.
	Save(ctx context.Context, window int, state any) error
	// Latest decodes the newest valid snapshot into state; ok is false
	// when none exists.
	Latest(ctx context.Context, state any) (window int, ok bool, err error)
}

// Snapshot is the serializable accumulator state of a run after Step+1
// completed steps: exactly the values Run folds forward across step
// boundaries. Resuming from it is byte-identical to never crashing
// because every per-step quantity (consensus, network seed, traffic) is
// derived from the step index alone, never from prior-step state.
type Snapshot struct {
	// Step is the last completed step (0-based).
	Step int
	// Harvest holds the harvest accumulators in packed form.
	Harvest HarvestState
	// PublishedCol / RequestedCol pack the cross-step descriptor-ID sets
	// behind PublishedIDsSeen / RequestedPublishedIDs.
	PublishedCol []byte
	RequestedCol []byte
}

// StepLen is the duration of one rotation step.
const StepLen = 2 * time.Hour

// bandwidth is the advertised bandwidth of attacker relays. It must be
// high: the per-IP consensus slots go to the two fastest relays.
const bandwidth = 99999

// deployLead is how long before the attack the fleet starts running. It
// must exceed the consensus's HSDir uptime threshold (25 hours), so that
// every attacker relay holds the flag when the attack starts.
const deployLead = 26 * time.Hour

// Config parameterises the trawling fleet. The paper used 58 Amazon EC2
// instances (IP addresses).
type Config struct {
	// IPs is the number of rented IP addresses.
	IPs int
	// Steps is the number of reachability-rotation steps across the
	// attack window; each step activates a fresh pair of relays per IP,
	// so RelaysPerIP = 2*Steps.
	Steps int
	// DriveTraffic also simulates client descriptor-request traffic in
	// each step and aggregates the attacker's request logs.
	DriveTraffic bool
	// ClientConfig configures the client population when DriveTraffic is
	// set.
	ClientConfig simnet.Config
	// Workers shards the per-step descriptor placement and traffic
	// drive across goroutines (<= 0: one per CPU). Results are identical
	// at every worker count.
	Workers int
	// SecretTable optionally shares precomputed rend-spec
	// secret-id-parts across every per-step network's fetch-traffic
	// derivation (descriptor placement reads the population's
	// per-period ID cache instead). The experiments Env
	// passes one study-wide table; nil lets each step's network build
	// its own.
	SecretTable *onion.SecretIDTable
	// Checkpoint, when non-nil, snapshots the harvest accumulators at
	// step boundaries so a killed run can resume.
	Checkpoint Checkpointer
	// CheckpointEvery is the number of steps between snapshots (<= 0
	// means every step when Checkpoint is set).
	CheckpointEvery int
	// Resume restores the latest valid snapshot from Checkpoint and
	// continues from the following step instead of starting at step 0.
	Resume bool
}

// DefaultConfig mirrors the paper's deployment at simulation scale.
func DefaultConfig(seed int64) Config {
	return Config{
		IPs:          58,
		Steps:        12,
		DriveTraffic: true,
		ClientConfig: simnet.DefaultConfig(seed),
	}
}

// Harvest is the outcome of one trawling run.
type Harvest struct {
	// Addresses are all collected onion addresses.
	Addresses map[onion.Address]bool
	// PermIDs maps collected addresses to their permanent IDs (derived
	// from the harvested descriptors).
	PermIDs map[onion.Address]onion.PermanentID
	// DescriptorsSeen counts descriptor uploads captured (with replica
	// multiplicity).
	DescriptorsSeen int
	// Log counts, per descriptor ID, the client requests the attacker
	// directories answered across all steps (empty unless DriveTraffic):
	// each step's network log, merged once per step. Its size is bounded
	// by the distinct IDs rather than the request volume.
	Log *hsdir.RequestLog
	// StepCoverage is, per step, the fraction of the consensus HSDir
	// ring positions held by attacker relays.
	StepCoverage []float64
	// PublishedIDsSeen is the number of distinct descriptor IDs stored
	// on attacker directories across the window.
	PublishedIDsSeen int
	// RequestedPublishedIDs is how many of those were ever fetched by a
	// client — the paper observed only ~10% of published descriptors
	// were ever requested (E9).
	RequestedPublishedIDs int
	// CollectedFraction is |Addresses| over the number of services that
	// published descriptors.
	CollectedFraction float64
	// Window is the attack window [Start, End).
	Start, End time.Time
}

// Trawler drives the attack against a relaynet simulation.
type Trawler struct {
	cfg    Config
	fleet  [][]*relay.Relay // fleet[ip][i]
	allFPs map[onion.Fingerprint]bool
	// active is the pair reachable on every IP: Deploy's pair 0 until
	// the first rotate, also on a run resumed at a later step.
	active int
}

// NewTrawler validates the configuration.
func NewTrawler(cfg Config) (*Trawler, error) {
	if cfg.IPs <= 0 {
		return nil, fmt.Errorf("trawl: IPs %d must be positive", cfg.IPs)
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("trawl: steps %d must be positive", cfg.Steps)
	}
	return &Trawler{cfg: cfg, allFPs: make(map[onion.Fingerprint]bool)}, nil
}

// Deploy starts the fleet at attackStart-deployLead and registers it with
// the simulation's authority: cfg.IPs addresses × 2*Steps relays each.
// Initially only the first pair per IP is reachable.
func (t *Trawler) Deploy(sim *relaynet.Sim, attackStart time.Time) {
	startAt := attackStart.Add(-deployLead)
	relaysPerIP := 2 * t.cfg.Steps
	t.fleet = make([][]*relay.Relay, t.cfg.IPs)
	t.active = 0
	for ip := 0; ip < t.cfg.IPs; ip++ {
		addr := fmt.Sprintf("203.0.%d.%d", ip/250, ip%250+1)
		t.fleet[ip] = make([]*relay.Relay, relaysPerIP)
		for i := 0; i < relaysPerIP; i++ {
			r := relay.New(relay.Config{
				ID:        sim.NewRelayID(),
				Nickname:  fmt.Sprintf("trawler%02d-%02d", ip, i),
				IP:        addr,
				ORPort:    9001 + i,
				Bandwidth: bandwidth,
			}, sim.RNG())
			r.Start(startAt)
			// Shadow relays stay reachable (they accrue uptime and
			// flags); only step-0's pair keeps the consensus slots at
			// first because slots go to the two fastest *reachable*
			// relays and we mark later pairs unreachable until their
			// step.
			if i >= 2 {
				r.SetReachable(false)
			}
			sim.AddAttackerRelay(r)
			t.fleet[ip][i] = r
			t.allFPs[r.Fingerprint()] = true
		}
	}
}

// rotate makes exactly the pair for the given step reachable on every IP.
// Only the outgoing and the incoming pair change, so it touches at most
// four relays per IP.
func (t *Trawler) rotate(step int) {
	if step == t.active {
		return
	}
	for _, relays := range t.fleet {
		for i := 0; i < 2; i++ {
			relays[2*t.active+i].SetReachable(false)
			relays[2*step+i].SetReachable(true)
		}
	}
	t.active = step
}

// Run executes the attack: for each step it rotates the fleet, lets the
// authority publish a consensus, re-publishes all service descriptors
// onto the resulting ring, optionally drives client traffic, and reads
// the attacker directories. Each step's network is restricted to the
// attacker directories (simnet.Config.Observed): it publishes to, probes
// and counts requests at only what the read-out sees, which leaves every
// harvest field exactly as a full-ring simulation would. The step
// network's request log merges into the harvest log once per step; one
// network, rebuilt in place per step (simnet.Network.Rebuild), serves all.
//
// The step is the cancellation unit: ctx is observed at every step
// boundary (and inside the step through the traffic drive). A cancelled
// checkpointed run flushes a snapshot of its completed steps before
// returning ctx.Err(), so resuming after a deliberate stop loses no
// finished work and stays byte-identical to an uninterrupted run.
//
//torhs:cancelpoint
func (t *Trawler) Run(
	ctx context.Context,
	sim *relaynet.Sim,
	pop *hspop.Population,
	db *geo.DB,
	attackStart time.Time,
) (*Harvest, error) {
	if t.fleet == nil {
		return nil, fmt.Errorf("trawl: fleet not deployed")
	}
	var net simnet.Network
	h := &Harvest{
		Addresses: make(map[onion.Address]bool),
		PermIDs:   make(map[onion.Address]onion.PermanentID),
		Log:       hsdir.NewRequestLog(),
		Start:     attackStart,
		End:       attackStart.Add(time.Duration(t.cfg.Steps) * StepLen),
	}

	published := pop.WithDescriptor()
	publishedIDs := make(map[onion.DescriptorID]bool)
	requestedPublished := make(map[onion.DescriptorID]bool)
	startStep := 0
	if t.cfg.Resume && t.cfg.Checkpoint != nil {
		var snap Snapshot
		w, ok, err := t.cfg.Checkpoint.Latest(ctx, &snap)
		if err != nil {
			return nil, fmt.Errorf("trawl: resume: %w", err)
		}
		// A snapshot that is not the packed form, or whose columns do
		// not hold together, is treated as missing: the run starts over
		// from step 0.
		if ok {
			if restored, pub, req, uerr := snap.unpack(); uerr == nil {
				if snap.Step != w {
					return nil, fmt.Errorf("trawl: resume: snapshot step %d under window %d", snap.Step, w)
				}
				startStep = snap.Step + 1
				restored.Start, restored.End = h.Start, h.End
				h, publishedIDs, requestedPublished = restored, pub, req
			}
		}
	}
	ckptEvery := t.cfg.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 1
	}
	// lastSaved is the newest step already covered by a snapshot: the
	// restored one on resume, nothing otherwise (startStep-1 is -1 for a
	// fresh run). The cancellation flush only writes when the
	// accumulators have advanced past it.
	lastSaved := startStep - 1
	// snap's columns are reused by every save.
	var snap Snapshot
	makeSnap := func(step int) *Snapshot {
		snap.pack(step, h, publishedIDs, requestedPublished)
		return &snap
	}
	flush := func(step int) error {
		if t.cfg.Checkpoint == nil || step <= lastSaved || step < 0 {
			return nil
		}
		// The run is already cancelled; the flush must still land, so it
		// gets a context that keeps ctx's values but not its cancel.
		if err := t.cfg.Checkpoint.Save(context.WithoutCancel(ctx), step, makeSnap(step)); err != nil {
			return fmt.Errorf("trawl: step %d: cancel flush: %w", step, err)
		}
		lastSaved = step
		return nil
	}
	for step := startStep; step < t.cfg.Steps; step++ {
		if cerr := ctx.Err(); cerr != nil {
			if err := flush(step - 1); err != nil {
				return nil, err
			}
			return nil, cerr
		}
		// The step boundary is a fault site: everything before it is
		// checkpointed (or cheap to redo), everything after belongs to
		// this step alone.
		if err := fault.Hit(fault.SiteTrawlStep); err != nil {
			return nil, fmt.Errorf("trawl: step %d: %w", step, err)
		}
		now := attackStart.Add(time.Duration(step) * StepLen)
		t.rotate(step)
		doc := sim.Authority().Publish(now)
		hsdirs := doc.HSDirs()
		if len(hsdirs) == 0 {
			return nil, fmt.Errorf("trawl: step %d: consensus has no HSDir-flagged relays", step)
		}

		// The step reads only the attacker-operated directories, so its
		// network publishes to, probes and counts requests at only those.
		attacker := t.attackerDirs(hsdirs)
		if err := net.Rebuild(doc, db, t.stepConfig(step, attacker)); err != nil {
			return nil, fmt.Errorf("trawl: step %d: %w", step, err)
		}
		net.PublishAll(pop, now)

		if t.cfg.DriveTraffic {
			if _, err := net.DriveWindow(ctx, pop, now, StepLen, nil); err != nil {
				// Cancelled mid-step: the step's network is abandoned
				// wholesale (nothing merged into the harvest), so the
				// completed prefix is still exactly [0, step).
				if ferr := flush(step - 1); ferr != nil {
					return nil, ferr
				}
				return nil, err
			}
		}

		t.readOut(h, publishedIDs, requestedPublished, &net, attacker)
		h.Log.Merge(net.Log())
		h.StepCoverage = append(h.StepCoverage, float64(len(attacker))/float64(len(hsdirs)))

		// Snapshot after the step's accumulators are complete. The final
		// step is not snapshotted: the run finishes immediately after and
		// the caller clears the set on success.
		if t.cfg.Checkpoint != nil && step < t.cfg.Steps-1 && (step+1)%ckptEvery == 0 {
			if err := t.cfg.Checkpoint.Save(ctx, step, makeSnap(step)); err != nil {
				return nil, fmt.Errorf("trawl: step %d: checkpoint: %w", step, err)
			}
			lastSaved = step
		}
	}

	h.PublishedIDsSeen = len(publishedIDs)
	h.RequestedPublishedIDs = len(requestedPublished)
	if len(published) > 0 {
		h.CollectedFraction = float64(len(h.Addresses)) / float64(len(published))
	}
	return h, nil
}

// attackerDirs returns the attacker-operated relays among a step's
// HSDirs, in consensus order.
func (t *Trawler) attackerDirs(hsdirs []onion.Fingerprint) []onion.Fingerprint {
	out := make([]onion.Fingerprint, 0, 2*len(t.fleet))
	for _, fp := range hsdirs {
		if t.allFPs[fp] {
			out = append(out, fp)
		}
	}
	return out
}

// stepConfig is the network configuration of one step, restricted to the
// observed directories (nil: every directory).
func (t *Trawler) stepConfig(step int, observed []onion.Fingerprint) simnet.Config {
	cfg := t.cfg.ClientConfig
	cfg.Seed = cfg.Seed*1000003 + int64(step) // fresh but deterministic per step
	cfg.Workers = t.cfg.Workers
	cfg.SecretTable = t.cfg.SecretTable
	cfg.Observed = observed
	return cfg
}

// readOut folds every attacker-operated directory of a step's network
// into the harvest accumulators in place, in consensus order, through
// the stores' visitors (no copies). A directory's Each visits one
// descriptor per descriptor ID it ever stored, so its DescIDs are the
// published IDs. Every field is a sum or a set union, so the order is
// immaterial. Most descriptors a step reads belong to services an
// earlier step already harvested, so one lookup settles each of those.
func (t *Trawler) readOut(
	h *Harvest,
	publishedIDs, requestedPublished map[onion.DescriptorID]bool,
	net *simnet.Network,
	attacker []onion.Fingerprint,
) {
	for _, fp := range attacker {
		dir, ok := net.Directory(fp)
		if !ok {
			continue
		}
		dir.Each(func(desc *onion.Descriptor) {
			h.DescriptorsSeen++
			publishedIDs[desc.DescID] = true
			if _, ok := h.PermIDs[desc.Address]; !ok {
				h.Addresses[desc.Address] = true
				h.PermIDs[desc.Address] = desc.PermID
			}
		})
		if t.cfg.DriveTraffic {
			dir.EachRequestedPublishedID(func(id onion.DescriptorID) {
				requestedPublished[id] = true
			})
		}
	}
}

// RequestedPublishedFraction returns the share of observed published
// descriptor IDs that clients ever asked for (≈10% in the paper).
func (h *Harvest) RequestedPublishedFraction() float64 {
	if h.PublishedIDsSeen == 0 {
		return 0
	}
	return float64(h.RequestedPublishedIDs) / float64(h.PublishedIDsSeen)
}

// HarvestState is the serializable (gob) form of a Harvest: the harvest
// half of every trawl Snapshot. Identifiers are packed into
// columns (onion.AppendPacked); Addresses is not stored, because every
// address is onion.AddressFromID of its permanent ID. Round-tripping
// through it reconstructs every aggregate the downstream pipelines read.
type HarvestState struct {
	// Format is harvestFormat. A payload of any other form decodes with
	// Format zero and is refused, so it is never half-restored.
	Format int
	// PermIDCol packs the harvested permanent IDs, in unspecified order.
	PermIDCol             []byte
	DescriptorsSeen       int
	StepCoverage          []float64
	PublishedIDsSeen      int
	RequestedPublishedIDs int
	CollectedFraction     float64
	Start, End            time.Time
	// LogIDCol / LogCountCol / LogTotal / LogFound carry the merged
	// log's aggregate state (hsdir.RequestLog.Pack form).
	LogIDCol    []byte
	LogCountCol []int
	LogTotal    int
	LogFound    int
}

// harvestFormat marks the packed-column HarvestState.
const harvestFormat = 1

// State captures the harvest's serializable form.
func (h *Harvest) State() *HarvestState {
	st := &HarvestState{}
	h.pack(st)
	return st
}

// pack writes the harvest into st, reusing st's column buffers.
func (h *Harvest) pack(st *HarvestState) {
	col := slices.Grow(st.PermIDCol[:0], len(h.PermIDs)*onion.PermanentIDLen)
	//torhs:ignore detorder the packed column is a set: unpack folds it back into maps
	for _, id := range h.PermIDs {
		col = onion.AppendPacked(col, id)
	}
	*st = HarvestState{
		Format:                harvestFormat,
		PermIDCol:             col,
		DescriptorsSeen:       h.DescriptorsSeen,
		StepCoverage:          h.StepCoverage,
		PublishedIDsSeen:      h.PublishedIDsSeen,
		RequestedPublishedIDs: h.RequestedPublishedIDs,
		CollectedFraction:     h.CollectedFraction,
		Start:                 h.Start,
		End:                   h.End,
		LogIDCol:              st.LogIDCol[:0],
		LogCountCol:           st.LogCountCol[:0],
	}
	st.LogIDCol, st.LogCountCol, st.LogTotal, st.LogFound = h.Log.Pack(st.LogIDCol, st.LogCountCol)
}

// unpack rebuilds the Harvest. It refuses a state that is not the packed
// form or whose columns do not hold together: a column that is not whole
// identifiers, an identifier packed twice, or a log that does not add up.
func (st *HarvestState) unpack() (*Harvest, error) {
	if st.Format != harvestFormat {
		return nil, fmt.Errorf("trawl: harvest state format %d, want %d", st.Format, harvestFormat)
	}
	ids, ok := onion.UnpackIDs[onion.PermanentID](st.PermIDCol)
	if !ok {
		return nil, fmt.Errorf("trawl: permanent-ID column of %d bytes", len(st.PermIDCol))
	}
	h := &Harvest{
		Addresses:             make(map[onion.Address]bool, len(ids)),
		PermIDs:               make(map[onion.Address]onion.PermanentID, len(ids)),
		DescriptorsSeen:       st.DescriptorsSeen,
		StepCoverage:          st.StepCoverage,
		PublishedIDsSeen:      st.PublishedIDsSeen,
		RequestedPublishedIDs: st.RequestedPublishedIDs,
		CollectedFraction:     st.CollectedFraction,
		Start:                 st.Start,
		End:                   st.End,
		Log:                   hsdir.NewRequestLog(),
	}
	for _, id := range ids {
		addr := onion.AddressFromID(id)
		if h.Addresses[addr] {
			return nil, fmt.Errorf("trawl: permanent ID of %s packed twice", addr)
		}
		h.Addresses[addr] = true
		h.PermIDs[addr] = id
	}
	if err := h.Log.Unpack(st.LogIDCol, st.LogCountCol, st.LogTotal, st.LogFound); err != nil {
		return nil, err
	}
	return h, nil
}

// pack writes the run's accumulators after step into s, reusing s's
// column buffers.
func (s *Snapshot) pack(step int, h *Harvest, published, requested map[onion.DescriptorID]bool) {
	s.Step = step
	h.pack(&s.Harvest)
	s.PublishedCol = packIDSet(s.PublishedCol[:0], published)
	s.RequestedCol = packIDSet(s.RequestedCol[:0], requested)
}

// unpack restores the run's accumulators from s. It refuses what
// HarvestState.unpack refuses, an ID set packed with a repeat or a
// partial ID, and step coverage that does not cover Step+1 steps.
func (s *Snapshot) unpack() (h *Harvest, published, requested map[onion.DescriptorID]bool, err error) {
	if h, err = s.Harvest.unpack(); err != nil {
		return nil, nil, nil, err
	}
	if len(h.StepCoverage) != s.Step+1 {
		return nil, nil, nil, fmt.Errorf("trawl: %d step coverages for step %d", len(h.StepCoverage), s.Step)
	}
	if published, err = unpackIDSet(s.PublishedCol); err != nil {
		return nil, nil, nil, err
	}
	if requested, err = unpackIDSet(s.RequestedCol); err != nil {
		return nil, nil, nil, err
	}
	return h, published, requested, nil
}

// packIDSet appends the set's members to col, in unspecified order.
func packIDSet(col []byte, set map[onion.DescriptorID]bool) []byte {
	col = slices.Grow(col, len(set)*len(onion.DescriptorID{}))
	//torhs:ignore detorder the packed column is a set: unpackIDSet folds it back into a map
	for id := range set {
		col = onion.AppendPacked(col, id)
	}
	return col
}

// unpackIDSet folds a column packIDSet wrote back into a set.
func unpackIDSet(col []byte) (map[onion.DescriptorID]bool, error) {
	ids, ok := onion.UnpackIDs[onion.DescriptorID](col)
	if !ok {
		return nil, fmt.Errorf("trawl: descriptor-ID column of %d bytes", len(col))
	}
	set := make(map[onion.DescriptorID]bool, len(ids))
	for _, id := range ids {
		if set[id] {
			return nil, fmt.Errorf("trawl: descriptor ID %s packed twice", id.Hex())
		}
		set[id] = true
	}
	return set, nil
}
