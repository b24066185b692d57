package trawl

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"slices"
	"testing"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
	"torhs/internal/race"
	"torhs/internal/resultstore"
)

// mapSnapshot is a trawl checkpoint as runs wrote it before packed
// columns: the compact map form, marked by Compact.
type mapSnapshot struct {
	Step               int
	Addresses          map[onion.Address]bool
	PermIDs            map[onion.Address]onion.PermanentID
	DescriptorsSeen    int
	StepCoverage       []float64
	Compact            bool
	LogCounts          map[onion.DescriptorID]int
	LogTotal           int
	LogFound           int
	PublishedIDs       map[onion.DescriptorID]bool
	RequestedPublished map[onion.DescriptorID]bool
}

// latestPacked runs a checkpointed attack to completion and returns its
// newest snapshot (step 4: the final step is never snapshotted).
func latestPacked(t *testing.T) (*resultstore.CheckpointSet, Snapshot) {
	t.Helper()
	set := testCkptSet(t)
	if _, err := ckptRun(t, func(c *Config) { c.Checkpoint = ctxSet{set} }); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	w, ok, err := set.Latest(&snap)
	if err != nil || !ok || w != 4 {
		t.Fatalf("Latest = %d ok=%v err=%v, want window 4", w, ok, err)
	}
	return set, snap
}

// TestResumeIgnoresMapFormSnapshot: a snapshot in the compact map form,
// saved under the current frame magic, decodes into a Snapshot with
// only its Step set. Resuming must not restore it: the run starts over
// and matches an uninterrupted run.
func TestResumeIgnoresMapFormSnapshot(t *testing.T) {
	ref, err := ckptRun(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, snap := latestPacked(t)
	h, pub, req, err := snap.unpack()
	if err != nil {
		t.Fatal(err)
	}
	counts, total, found := h.Log.CompactState()
	if err := set.Save(4, mapSnapshot{
		Step:               4,
		Addresses:          h.Addresses,
		PermIDs:            h.PermIDs,
		DescriptorsSeen:    h.DescriptorsSeen,
		StepCoverage:       h.StepCoverage,
		Compact:            true,
		LogCounts:          counts,
		LogTotal:           total,
		LogFound:           found,
		PublishedIDs:       pub,
		RequestedPublished: req,
	}); err != nil {
		t.Fatal(err)
	}
	var half Snapshot
	if _, _, err := set.Latest(&half); err != nil {
		t.Fatal(err)
	}
	if half.Step != 4 || half.Harvest.Format != 0 {
		t.Fatalf("map-form snapshot decoded as step %d, format %d", half.Step, half.Harvest.Format)
	}
	got, err := ckptRun(t, func(c *Config) {
		c.Checkpoint = ctxSet{set}
		c.Resume = true
	})
	if err != nil {
		t.Fatal(err)
	}
	assertHarvestsEqual(t, ref, got)
}

// TestResumeRefusesBrokenColumns: a hash-valid packed snapshot whose
// columns do not hold together is treated as missing, never restored
// and never a panic; the run starts over and matches an uninterrupted
// run. HarvestState.unpack refuses a harvest state broken the same way.
func TestResumeRefusesBrokenColumns(t *testing.T) {
	ref, err := ckptRun(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, good := latestPacked(t)
	payload := gobBytes(t, &good)
	for _, c := range []struct {
		name         string
		breakIt      func(*Snapshot)
		harvestBreak bool // the harvest state alone is broken too
	}{
		{"short permanent-ID column", func(s *Snapshot) { s.Harvest.PermIDCol = s.Harvest.PermIDCol[1:] }, true},
		{"short log-count column", func(s *Snapshot) { s.Harvest.LogCountCol = s.Harvest.LogCountCol[1:] }, true},
		{"log total off by one", func(s *Snapshot) { s.Harvest.LogTotal++ }, true},
		{"repeated published ID", func(s *Snapshot) { s.PublishedCol = append(s.PublishedCol, s.PublishedCol[:idLen]...) }, false},
		{"coverage of another step", func(s *Snapshot) { s.Step-- }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Each case breaks a fresh copy of the good snapshot; the
			// previous case's resumed run rewrote window 4 validly.
			var snap Snapshot
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			c.breakIt(&snap)
			if _, _, _, err := snap.unpack(); err == nil {
				t.Fatal("unpack accepted the broken snapshot")
			}
			if _, err := snap.Harvest.unpack(); (err != nil) != c.harvestBreak {
				t.Fatalf("HarvestState.unpack err=%v on the broken snapshot's harvest state", err)
			}
			if err := set.Save(4, &snap); err != nil {
				t.Fatal(err)
			}
			got, err := ckptRun(t, func(c *Config) {
				c.Checkpoint = ctxSet{set}
				c.Resume = true
			})
			if err != nil {
				t.Fatal(err)
			}
			assertHarvestsEqual(t, ref, got)
		})
	}
}

// syntheticHarvest builds a harvest of n services and n logged IDs, with
// n published and n/10 requested descriptor IDs.
func syntheticHarvest(n int) (*Harvest, map[onion.DescriptorID]bool, map[onion.DescriptorID]bool) {
	h := &Harvest{
		Addresses: make(map[onion.Address]bool, n),
		PermIDs:   make(map[onion.Address]onion.PermanentID, n),
		Log:       hsdir.NewRequestLog(),
	}
	pub := make(map[onion.DescriptorID]bool, n)
	req := make(map[onion.DescriptorID]bool, n/10)
	for i := 0; i < n; i++ {
		var pid onion.PermanentID
		binary.BigEndian.PutUint32(pid[:], uint32(i))
		addr := onion.AddressFromID(pid)
		h.Addresses[addr], h.PermIDs[addr] = true, pid
		var id onion.DescriptorID
		binary.BigEndian.PutUint32(id[:], uint32(i))
		h.Log.Record(id, i%3 == 0)
		pub[id] = true
		if i%10 == 0 {
			req[id] = true
		}
	}
	h.StepCoverage = []float64{0.1, 0.2, 0.3, 0.4}
	return h, pub, req
}

// TestPackAllocsIndependentOfSize: packing a snapshot allocates one
// buffer per column, however many IDs it holds.
func TestPackAllocsIndependentOfSize(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts vary under -race")
	}
	allocs := func(n int) float64 {
		h, pub, req := syntheticHarvest(n)
		return testing.AllocsPerRun(5, func() {
			var s Snapshot
			s.pack(3, h, pub, req)
		})
	}
	small, large := allocs(1000), allocs(50000)
	if small != large || large > 5 {
		t.Fatalf("packing allocates %v times at 1k IDs and %v at 50k, want the same count, at most one per column", small, large)
	}
	// Reused columns allocate nothing at all.
	h, pub, req := syntheticHarvest(1000)
	var s Snapshot
	s.pack(3, h, pub, req)
	if n := testing.AllocsPerRun(5, func() { s.pack(3, h, pub, req) }); n != 0 {
		t.Fatalf("repacking into reused columns allocates %v times", n)
	}
}

// TestSnapshotRoundTrip: a packed snapshot unpacks to the accumulators
// it was packed from.
func TestSnapshotRoundTrip(t *testing.T) {
	h, pub, req := syntheticHarvest(300)
	h.DescriptorsSeen = 600
	var s Snapshot
	s.pack(3, h, pub, req)
	back, bpub, breq, err := s.unpack()
	if err != nil {
		t.Fatal(err)
	}
	assertHarvestsEqual(t, h, back)
	if len(bpub) != len(pub) || len(breq) != len(req) {
		t.Fatalf("ID sets: %d/%d published, %d/%d requested", len(bpub), len(pub), len(breq), len(req))
	}
	for id := range pub {
		if !bpub[id] {
			t.Fatalf("published ID %s lost", id.Hex())
		}
	}
	for id := range req {
		if !breq[id] {
			t.Fatalf("requested ID %s lost", id.Hex())
		}
	}
}

// FuzzHarvestUnpack fuzzes the trawl's snapshot decoder surface: data is
// a gob payload decoded into a Snapshot (snapshot true) or a
// HarvestState. Property: unpack refuses the input with an error, never
// a panic, or re-packing what it restored gives the same columns —
// compared as sets, because map iteration order writes them — and the
// same scalars.
func FuzzHarvestUnpack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, snapshot bool) {
		if snapshot {
			var s Snapshot
			if gob.NewDecoder(bytes.NewReader(data)).Decode(&s) != nil {
				return
			}
			h, pub, req, err := s.unpack()
			if err != nil {
				return
			}
			var again Snapshot
			again.pack(s.Step, h, pub, req)
			if again.Step != s.Step {
				t.Fatalf("step %d repacked as %d", s.Step, again.Step)
			}
			assertSameIDSet(t, "published", s.PublishedCol, again.PublishedCol, idLen)
			assertSameIDSet(t, "requested", s.RequestedCol, again.RequestedCol, idLen)
			assertSameHarvestState(t, &s.Harvest, &again.Harvest)
			return
		}
		var st HarvestState
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&st) != nil {
			return
		}
		h, err := st.unpack()
		if err != nil {
			return
		}
		assertSameHarvestState(t, &st, h.State())
	})
}

// assertSameHarvestState compares two harvest states: columns as sets,
// everything else by its gob encoding (so NaN coverage compares equal to
// itself).
func assertSameHarvestState(t *testing.T, want, got *HarvestState) {
	t.Helper()
	assertSameIDSet(t, "permanent-ID", want.PermIDCol, got.PermIDCol, onion.PermanentIDLen)
	wantLog := logPairs(want.LogIDCol, want.LogCountCol)
	if gotLog := logPairs(got.LogIDCol, got.LogCountCol); !slices.Equal(wantLog, gotLog) {
		t.Fatalf("log columns moved: %d vs %d entries", len(wantLog), len(gotLog))
	}
	a, b := *want, *got
	a.PermIDCol, a.LogIDCol, a.LogCountCol = nil, nil, nil
	b.PermIDCol, b.LogIDCol, b.LogCountCol = nil, nil, nil
	if ea, eb := gobBytes(t, &a), gobBytes(t, &b); !bytes.Equal(ea, eb) {
		t.Fatalf("scalars moved:\nwant %+v\ngot  %+v", a, b)
	}
}

// idLen is the width of a packed descriptor ID.
const idLen = len(onion.DescriptorID{})

// assertSameIDSet compares two packed columns of w-byte rows as sets
// (neither holds a repeat once unpack accepted it).
func assertSameIDSet(t *testing.T, what string, want, got []byte, w int) {
	t.Helper()
	if !slices.Equal(sortedRows(want, w), sortedRows(got, w)) {
		t.Fatalf("%s column moved: %d vs %d bytes", what, len(want), len(got))
	}
}

// sortedRows splits a column into its w-byte rows, sorted.
func sortedRows(col []byte, w int) []string {
	rows := make([]string, 0, len(col)/w)
	for i := 0; i < len(col); i += w {
		rows = append(rows, string(col[i:i+w]))
	}
	slices.Sort(rows)
	return rows
}

// logPairs renders a packed log as sorted (ID, count) rows.
func logPairs(ids []byte, counts []int) []string {
	rows := make([]string, 0, len(counts))
	for i, n := range counts {
		rows = append(rows, string(ids[idLen*i:idLen*(i+1)])+string(binary.AppendVarint(nil, int64(n))))
	}
	slices.Sort(rows)
	return rows
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
