package resultstore

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"torhs/internal/fault"
)

// ckptState is a representative snapshot shape: nested maps, counters,
// non-finite floats, and exact instants.
type ckptState struct {
	Window  int
	Counts  map[string]int
	Ratio   float64
	At      time.Time
	Labels  []string
	Covered float64
}

func testState(window int) *ckptState {
	return &ckptState{
		Window:  window,
		Counts:  map[string]int{"descriptors": 17 * (window + 1), "requests": 5},
		Ratio:   math.Inf(1),
		At:      time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(window) * time.Hour),
		Labels:  []string{"a", "b"},
		Covered: 0.25,
	}
}

func openCkpt(t *testing.T) (*Store, *CheckpointSet) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Checkpoints(testKey("trawl"))
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestCheckpointRoundTrip(t *testing.T) {
	_, c := openCkpt(t)

	var none ckptState
	if _, ok, err := c.Latest(&none); err != nil || ok {
		t.Fatalf("Latest on empty set = ok=%v err=%v, want clean miss", ok, err)
	}

	for w := 0; w < 3; w++ {
		if err := c.Save(w, testState(w)); err != nil {
			t.Fatalf("Save(%d): %v", w, err)
		}
	}
	var got ckptState
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 2 {
		t.Fatalf("Latest = (%d, %v, %v), want window 2", w, ok, err)
	}
	want := testState(2)
	if got.Window != want.Window || got.Counts["descriptors"] != want.Counts["descriptors"] ||
		!math.IsInf(got.Ratio, 1) || !got.At.Equal(want.At) {
		t.Fatalf("snapshot did not round-trip: %+v", got)
	}
}

func TestCheckpointPruneKeepsTwo(t *testing.T) {
	_, c := openCkpt(t)
	for w := 0; w < 5; w++ {
		if err := c.Save(w, testState(w)); err != nil {
			t.Fatal(err)
		}
	}
	wins, err := c.windows()
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 || wins[0] != 3 || wins[1] != 4 {
		t.Fatalf("windows after prune = %v, want [3 4]", wins)
	}
}

func TestCheckpointCorruptFallsBack(t *testing.T) {
	s, c := openCkpt(t)
	if err := c.Save(1, testState(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(2, testState(2)); err != nil {
		t.Fatal(err)
	}
	// Tear the newest snapshot: flip payload bytes behind the header.
	path := c.winPath(2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got ckptState
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 1 {
		t.Fatalf("Latest = (%d, %v, %v), want fallback to window 1", w, ok, err)
	}
	if got.Window != 1 {
		t.Fatalf("snapshot window = %d, want 1", got.Window)
	}
	// The torn file is quarantined, not left to poison the next run.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn checkpoint still present: %v", err)
	}
	q, err := filepath.Glob(filepath.Join(s.Dir(), "quarantine", "*.ckpt"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine glob = %v, %v; want one file", q, err)
	}
}

func TestCheckpointClear(t *testing.T) {
	_, c := openCkpt(t)
	if err := c.Save(0, testState(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	var got ckptState
	if _, ok, err := c.Latest(&got); err != nil || ok {
		t.Fatalf("Latest after Clear = ok=%v err=%v, want miss", ok, err)
	}
}

func TestCheckpointSaveFaultIsTransient(t *testing.T) {
	_, c := openCkpt(t)
	in := fault.New(1)
	if err := in.Set(fault.SiteCheckpoint, fault.Rule{Mode: fault.ModeErr, At: 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })

	err := c.Save(0, testState(0))
	if err == nil {
		t.Fatal("Save under an armed fault succeeded")
	}
	// Second attempt (the retry) goes through.
	if err := c.Save(0, testState(0)); err != nil {
		t.Fatalf("retry Save: %v", err)
	}
}

func TestOpenQuarantinesCorruptStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("scan")
	if _, err := s.Put(k, testDoc("scan")); err != nil {
		t.Fatal(err)
	}
	// Tear the object and corrupt the index entry on disk.
	var objPath string
	filepath.Walk(filepath.Join(dir, "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") {
			objPath = p
		}
		return nil
	})
	if objPath == "" {
		t.Fatal("no object written")
	}
	if err := os.WriteFile(objPath, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "index", k.Scenario, k.Experiment+".json")
	if err := os.WriteFile(idxPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: both corruptions move to quarantine with reasons.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over corrupt store: %v", err)
	}
	if _, err := os.Stat(objPath); !os.IsNotExist(err) {
		t.Fatal("torn object survived the startup scan")
	}
	if _, err := os.Stat(idxPath); !os.IsNotExist(err) {
		t.Fatal("corrupt index entry survived the startup scan")
	}
	q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*.json"))
	if err != nil || len(q) != 2 {
		t.Fatalf("quarantined files = %v, want 2", q)
	}
	for _, f := range q {
		if _, err := os.Stat(f + ".reason"); err != nil {
			t.Errorf("missing reason sidecar for %s", f)
		}
	}
	// The store now reads as a clean miss, not an error.
	if _, _, ok, err := s2.Get(k); err != nil || ok {
		t.Fatalf("Get after quarantine = ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestWriteAtomicFaultSites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(1)
	if err := in.Set(fault.SiteStoreRename, fault.Rule{Mode: fault.ModeErr, At: 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })

	k := testKey("scan")
	if _, err := s.Put(k, testDoc("scan")); err == nil {
		t.Fatal("Put under an armed rename fault succeeded")
	}
	// The failed write left no temp litter and no partial object.
	var tmps []string
	filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(filepath.Base(p), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Fatalf("temp litter after failed write: %v", tmps)
	}
	// Retrying succeeds and the store is consistent.
	if _, err := s.Put(k, testDoc("scan")); err != nil {
		t.Fatalf("retry Put: %v", err)
	}
	if _, _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("Get after retried Put = ok=%v err=%v", ok, err)
	}
}

// TestLatestFallbackStartsFromZero: a hash-valid snapshot that fails to
// decode part-way leaves no field behind in the state Latest then fills
// from the previous window.
func TestLatestFallbackStartsFromZero(t *testing.T) {
	_, c := openCkpt(t)
	if err := c.Save(1, struct{ Window int }{1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(testState(2)); err != nil {
		t.Fatal(err)
	}
	// Claim 127 labels where two follow: Window, Counts, Ratio and At
	// decode, then the labels run past the end of the message.
	payload := bytes.Replace(buf.Bytes(), []byte("\x02\x01a\x01b"), []byte("\x7f\x01a\x01b"), 1)
	if err := os.WriteFile(c.winPath(2), signFrame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	var got ckptState
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 1 {
		t.Fatalf("Latest = (%d, %v, %v), want window 1", w, ok, err)
	}
	if got.Window != 1 || got.Counts != nil || got.Ratio != 0 {
		t.Fatalf("the torn window 2 left fields behind: %+v", got)
	}
}
