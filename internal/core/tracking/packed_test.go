package tracking

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"torhs/internal/onion"
)

// structSweepSnapshot is a sweep checkpoint as runs wrote it before
// packed columns: one struct per relay state, occurrences as structs.
type structSweepSnapshot struct {
	Docs            int
	TotalHSDirs     int
	FirstVA, LastVA time.Time
	Occs            []Occurrence
	OccOwners       []int
	States          []structRelaySnap
}

type structRelaySnap struct {
	Report       RelayReport
	Seen         bool
	LastFP       onion.Fingerprint
	FPs          []onion.Fingerprint
	Nick0, IP0   string
	ExtraNicks   []string
	ExtraIPs     []string
	SwitchAts    []time.Time
	FirstFP      onion.Fingerprint
	FirstSeenAt  time.Time
	FirstRespDay int64
	InitRun      int
	LastRespDay  int64
	CurRun       int
	MaxRun       int
	RespCount    int
	OccCount     int
}

// structForm renders a sweep the way struct-form snapshots held it.
func structForm(sw *sweep, docs int) *structSweepSnapshot {
	s := &structSweepSnapshot{
		Docs:        docs,
		TotalHSDirs: sw.totalHSDirs,
		FirstVA:     sw.firstVA,
		LastVA:      sw.lastVA,
		Occs:        sw.occs,
	}
	for _, st := range sw.states.all {
		s.States = append(s.States, structRelaySnap{
			Report: st.report, Seen: st.seen, LastFP: st.lastFP, FPs: st.fps,
			Nick0: st.nick0, IP0: st.ip0, ExtraNicks: st.extraNicks, ExtraIPs: st.extraIPs,
			SwitchAts: st.switchAts, FirstFP: st.firstFP, FirstSeenAt: st.firstSeenAt,
			FirstRespDay: st.firstRespDay, InitRun: st.initRun, LastRespDay: st.lastRespDay,
			CurRun: st.curRun, MaxRun: st.maxRun, RespCount: st.respCount, OccCount: st.occCount,
		})
	}
	for _, st := range sw.occStates {
		s.OccOwners = append(s.OccOwners, st.idx)
	}
	return s
}

// foldPrefix folds the first k documents into a fresh sweep, as a
// checkpointed AnalyzeSource does before saving window k-1.
func foldPrefix(t *testing.T, an *Analyzer, docs Docs, target onion.PermanentID, k int) *sweep {
	t.Helper()
	sw := newSweep(an)
	for i := 0; i < k; i++ {
		sw.observeDoc(docs[i], target)
	}
	return &sw
}

// resumeFrom saves state as the snapshot after window 59 and resumes a
// checkpointed analysis from it; the report must match ref.
func resumeFrom(t *testing.T, an *Analyzer, docs Docs, target onion.PermanentID, ref *Report, state any) {
	t.Helper()
	set := trackingCkptSet(t)
	if err := set.Save(59, state); err != nil {
		t.Fatal(err)
	}
	got, err := an.AnalyzeSource(context.Background(), docs, target, ctxSet{set}, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resumed analysis diverged from uninterrupted run")
	}
}

// TestResumeIgnoresStructFormSnapshot: a struct-form snapshot saved
// under the current frame magic decodes into a sweepSnapshot with only
// its scalars set. Resuming must not restore it: the fold starts over
// and the report matches an uninterrupted analysis.
func TestResumeIgnoresStructFormSnapshot(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	docs := Docs(sc.History.Range(from, to))
	ref, err := an.AnalyzeSource(context.Background(), docs, sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	old := structForm(foldPrefix(t, an, docs, sc.Target, 60), 60)
	if len(old.Occs) == 0 || len(old.States) == 0 {
		t.Fatal("the prefix folded no state")
	}
	var half sweepSnapshot
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, old))).Decode(&half); err != nil {
		t.Fatal(err)
	}
	if half.Docs != 60 || half.Format != 0 {
		t.Fatalf("struct-form snapshot decoded as %d docs, format %d", half.Docs, half.Format)
	}
	resumeFrom(t, an, docs, sc.Target, ref, old)
}

// TestResumeRefusesBrokenSnapshot: a hash-valid packed snapshot whose
// columns do not hold together is refused by restore — never a panic —
// and the resumed analysis starts over and matches an uninterrupted one.
func TestResumeRefusesBrokenSnapshot(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	docs := Docs(sc.History.Range(from, to))
	ref, err := an.AnalyzeSource(context.Background(), docs, sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	good := gobBytes(t, foldPrefix(t, an, docs, sc.Target, 60).snapshot(60))
	for name, breakIt := range map[string]func(*sweepSnapshot){
		"owner out of range": func(s *sweepSnapshot) { s.OccRows[occOwner] = int64(len(s.Relays)/relayCols + 5) },
		"negative owner":     func(s *sweepSnapshot) { s.OccRows[occOwner] = -1 },
		"short column":       func(s *sweepSnapshot) { s.LastFPs = s.LastFPs[1:] },
		"short ratios":       func(s *sweepSnapshot) { s.OccRatios = s.OccRatios[1:] },
		"list overrun":       func(s *sweepSnapshot) { s.Relays[relNicks] += int64(len(s.ExtraNicks)) + 1 },
		"negative list":      func(s *sweepSnapshot) { s.Relays[relIPs] = -1 },
		"repeated relay":     func(s *sweepSnapshot) { s.Relays[relayCols+relID] = s.Relays[relID] },
		"occurrence count":   func(s *sweepSnapshot) { s.Relays[relOccCount]++ },
		"bad nanoseconds":    func(s *sweepSnapshot) { s.OccRows[occAtNsec] = int64(time.Second) },
		"unmarked":           func(s *sweepSnapshot) { s.Format = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			var snap sweepSnapshot
			if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			breakIt(&snap)
			sw := newSweep(an)
			if err := sw.restore(&snap); err == nil {
				t.Fatal("restore accepted the broken snapshot")
			}
			resumeFrom(t, an, docs, sc.Target, ref, &snap)
		})
	}
}

// TestSnapshotRestoreRoundTrip: restoring a snapshot and snapshotting
// again gives the same columns, and the restored sweep folds on to the
// uninterrupted report.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	docs := Docs(sc.History.Range(from, to))
	ref, err := an.AnalyzeSource(context.Background(), docs, sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	want := gobBytes(t, foldPrefix(t, an, docs, sc.Target, 60).snapshot(60))
	var snap sweepSnapshot
	if err := gob.NewDecoder(bytes.NewReader(want)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sw := newSweep(an)
	if err := sw.restore(&snap); err != nil {
		t.Fatal(err)
	}
	if got := gobBytes(t, sw.snapshot(60)); !bytes.Equal(got, want) {
		t.Fatal("restore then snapshot moved the columns")
	}
	for i := 60; i < len(docs); i++ {
		sw.observeDoc(docs[i], sc.Target)
	}
	if got := an.report(&sw, len(docs)); !reflect.DeepEqual(ref, got) {
		t.Fatal("restored sweep diverged from the uninterrupted report")
	}
}

// TestSnapshotReusesColumns: once the columns have grown, snapshotting a
// sweep allocates nothing.
func TestSnapshotReusesColumns(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	sw := foldPrefix(t, an, Docs(sc.History.Range(from, to)), sc.Target, 30)
	sw.snapshot(30)
	if n := testing.AllocsPerRun(5, func() { sw.snapshot(30) }); n != 0 {
		t.Fatalf("snapshot allocates %v times with grown columns", n)
	}
}

// FuzzSweepUnpack fuzzes the sweep's snapshot decoder surface: data is a
// gob payload decoded into a sweepSnapshot. Property: restore refuses it
// with an error, never a panic, or snapshotting the restored sweep gives
// the same columns (compared by their gob encoding, so NaN ratios
// compare equal to themselves).
func FuzzSweepUnpack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap sweepSnapshot
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&snap) != nil {
			return
		}
		sw := newSweep(nil)
		if sw.restore(&snap) != nil {
			return
		}
		want, got := gobBytes(t, &snap), gobBytes(t, sw.snapshot(snap.Docs))
		if !bytes.Equal(want, got) {
			t.Fatalf("restore then snapshot moved the columns:\nwant %+v\ngot  %+v", snap, sw.snap)
		}
	})
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
