package trawl

import (
	"context"
	"fmt"
	"testing"
	"time"

	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/relaynet"
	"torhs/internal/simnet"
)

// readout is one worker's partial read of the attacker directories, in
// directory order: the live descriptors, the descriptor IDs ever
// published, and those ever requested. It is part of the sharded
// read-out oracle below.
type readout struct {
	descs              []*onion.Descriptor
	publishedIDs       []onion.DescriptorID
	requestedPublished []onion.DescriptorID
}

// readStep is the sharded read-out oracle: every attacker-operated
// directory of a step's network read into per-worker lists, to be merged
// into the harvest in shard order by mergeReadouts.
func (t *Trawler) readStep(net *simnet.Network, attacker []onion.Fingerprint) []readout {
	shards := make([]readout, parallel.NumChunks(t.cfg.Workers, len(attacker)))
	parallel.Chunks(t.cfg.Workers, len(attacker), func(shard, lo, hi int) {
		out := &shards[shard]
		for _, fp := range attacker[lo:hi] {
			t.readDirectory(net, fp, out)
		}
	})
	return shards
}

// readDirectory appends one directory's descriptors, published IDs and
// requested published IDs to the shard's lists.
func (t *Trawler) readDirectory(net *simnet.Network, fp onion.Fingerprint, out *readout) {
	dir, ok := net.Directory(fp)
	if !ok {
		return
	}
	dir.Each(func(desc *onion.Descriptor) {
		out.descs = append(out.descs, desc)
		out.publishedIDs = append(out.publishedIDs, desc.DescID)
	})
	if t.cfg.DriveTraffic {
		dir.EachRequestedPublishedID(func(id onion.DescriptorID) {
			out.requestedPublished = append(out.requestedPublished, id)
		})
	}
}

// mergeReadouts folds the per-shard lists into the harvest accumulators.
func mergeReadouts(h *Harvest, publishedIDs, requestedPublished map[onion.DescriptorID]bool, shards []readout) {
	for i := range shards {
		sh := &shards[i]
		h.DescriptorsSeen += len(sh.descs)
		for _, desc := range sh.descs {
			if _, ok := h.PermIDs[desc.Address]; !ok {
				h.Addresses[desc.Address] = true
				h.PermIDs[desc.Address] = desc.PermID
			}
		}
		for _, id := range sh.publishedIDs {
			publishedIDs[id] = true
		}
		for _, id := range sh.requestedPublished {
			requestedPublished[id] = true
		}
	}
}

// mergeAllOracle is the copy-then-fold log merge: every source's counts
// are copied out and summed with l's own, and l is replaced by the sum.
func mergeAllOracle(t *testing.T, l *hsdir.RequestLog, others []*hsdir.RequestLog) {
	t.Helper()
	counts, total, found := l.CompactState()
	for _, o := range others {
		if o == nil || o == l {
			continue
		}
		c, ot, of := o.CompactState()
		for id, n := range c {
			counts[id] += n
		}
		total += ot
		found += of
	}
	var ids []byte
	var ns []int
	for id, n := range counts {
		ids = onion.AppendPacked(ids, id)
		ns = append(ns, n)
	}
	if err := l.Unpack(ids, ns, total, found); err != nil {
		t.Fatal(err)
	}
}

// oracleRun replays Run's steps with the sharded read-out and the
// copy-then-fold log merge, checkpointing nothing. after sees the
// accumulators once each step is complete.
func oracleRun(
	t *testing.T,
	tr *Trawler,
	sim *relaynet.Sim,
	pop *hspop.Population,
	db *geo.DB,
	start time.Time,
	after func(step int, h *Harvest, published, requested map[onion.DescriptorID]bool),
) *Harvest {
	t.Helper()
	h := &Harvest{
		Addresses: make(map[onion.Address]bool),
		PermIDs:   make(map[onion.Address]onion.PermanentID),
		Log:       hsdir.NewRequestLog(),
		Start:     start,
		End:       start.Add(time.Duration(tr.cfg.Steps) * StepLen),
	}
	published := make(map[onion.DescriptorID]bool)
	requested := make(map[onion.DescriptorID]bool)
	for step := 0; step < tr.cfg.Steps; step++ {
		now := start.Add(time.Duration(step) * StepLen)
		tr.rotate(step)
		doc := sim.Authority().Publish(now)
		hsdirs := doc.HSDirs()
		attacker := tr.attackerDirs(hsdirs)
		net, err := simnet.NewNetwork(doc, db, tr.stepConfig(step, attacker))
		if err != nil {
			t.Fatal(err)
		}
		net.PublishAll(pop, now)
		if tr.cfg.DriveTraffic {
			if _, err := net.DriveWindow(context.Background(), pop, now, StepLen, nil); err != nil {
				t.Fatal(err)
			}
		}
		mergeReadouts(h, published, requested, tr.readStep(net, attacker))
		mergeAllOracle(t, h.Log, []*hsdir.RequestLog{net.Log()})
		h.StepCoverage = append(h.StepCoverage, float64(len(attacker))/float64(len(hsdirs)))
		after(step, h, published, requested)
	}
	h.PublishedIDsSeen = len(published)
	h.RequestedPublishedIDs = len(requested)
	h.CollectedFraction = float64(len(h.Addresses)) / float64(len(pop.WithDescriptor()))
	return h
}

// assertSameSnapshot compares two snapshots: the step, the harvest state
// and both descriptor-ID sets.
func assertSameSnapshot(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Step != got.Step {
		t.Fatalf("snapshot step %d, want %d", got.Step, want.Step)
	}
	assertSameHarvestState(t, &want.Harvest, &got.Harvest)
	assertSameIDSet(t, "published-ID", want.PublishedCol, got.PublishedCol, idLen)
	assertSameIDSet(t, "requested-ID", want.RequestedCol, got.RequestedCol, idLen)
}

// TestInPlaceReadoutMatchesShardedOracle runs the attack with Run's
// in-place read-out and Merge, and with the sharded read-out and the
// copy-then-fold merge it replaced, at three seeds, 1, 2 and 8 workers,
// with and without driven traffic. Every harvest field, both ID-set
// counts and the packed log must agree; so must Run's checkpoint after
// its last snapshotted step, compared with the oracle's accumulators
// packed at that step. A run resumed from the oracle's snapshot after
// step 0 must finish with the oracle's harvest.
func TestInPlaceReadoutMatchesShardedOracle(t *testing.T) {
	const steps = 3
	for _, seed := range []int64{41, 42, 43} {
		for _, drive := range []bool{true, false} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("seed=%d/drive=%v/workers=%d", seed, drive, workers), func(t *testing.T) {
					tr, sim, pop, db, start := setupTrawl(t, seed, steps, drive)
					tr.cfg.Workers = workers
					snaps := make([]Snapshot, steps)
					want := oracleRun(t, tr, sim, pop, db, start, func(step int, h *Harvest, pub, req map[onion.DescriptorID]bool) {
						snaps[step].pack(step, h, pub, req)
					})
					if want.DescriptorsSeen == 0 || drive != (want.RequestedPublishedIDs > 0) {
						t.Fatalf("degenerate oracle: %d descriptors, %d requested IDs", want.DescriptorsSeen, want.RequestedPublishedIDs)
					}

					run := func(mutate func(*Config)) {
						tr, sim, pop, db, start := setupTrawl(t, seed, steps, drive)
						tr.cfg.Workers = workers
						mutate(&tr.cfg)
						h, err := tr.Run(context.Background(), sim, pop, db, start)
						if err != nil {
							t.Fatal(err)
						}
						assertHarvestsEqual(t, want, h)
						assertSameHarvestState(t, want.State(), h.State())
					}

					set := testCkptSet(t)
					run(func(c *Config) { c.Checkpoint = ctxSet{set} })
					var last Snapshot
					if w, ok, err := set.Latest(&last); err != nil || !ok || w != steps-2 {
						t.Fatalf("Latest = %d ok=%v err=%v, want window %d", w, ok, err, steps-2)
					}
					assertSameSnapshot(t, &snaps[steps-2], &last)

					resumed := testCkptSet(t)
					if err := resumed.Save(0, &snaps[0]); err != nil {
						t.Fatal(err)
					}
					run(func(c *Config) {
						c.Checkpoint = ctxSet{resumed}
						c.Resume = true
					})
				})
			}
		}
	}
}
