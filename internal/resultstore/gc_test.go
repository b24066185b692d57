package resultstore

import (
	"testing"
)

func TestGCRemovesOrphansKeepsReachable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Live object under its own key.
	ka := testKey("alpha")
	if _, err := s.Put(ka, testDoc("alpha")); err != nil {
		t.Fatal(err)
	}
	// Rebinding a key to new content orphans the first object — the
	// code-version-bump shape GC exists for.
	kb := testKey("beta")
	if _, err := s.Put(kb, testDoc("beta-v1")); err != nil {
		t.Fatal(err)
	}
	hb2, err := s.Put(kb, testDoc("beta-v2"))
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 3 || st.Reachable != 2 || st.Removed != 1 {
		t.Fatalf("GC stats = %+v, want 3 objects / 2 reachable / 1 removed", st)
	}
	if st.BytesFreed <= 0 {
		t.Fatalf("GC freed %d bytes, want > 0", st.BytesFreed)
	}

	// Both live bindings still resolve.
	if _, _, ok, err := s.Get(ka); err != nil || !ok {
		t.Fatalf("alpha unreadable after GC (ok=%v err=%v)", ok, err)
	}
	doc, hash, ok, err := s.Get(kb)
	if err != nil || !ok || hash != hb2 {
		t.Fatalf("beta after GC = ok=%v hash=%s err=%v, want %s", ok, hash, err, hb2)
	}
	if doc.Title != "beta-v2" {
		t.Fatalf("beta resolved to %q after GC", doc.Title)
	}

	// A second pass is a no-op: the store is already clean.
	st2, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Objects != 2 || st2.Removed != 0 {
		t.Fatalf("second GC stats = %+v, want 2 objects / 0 removed", st2)
	}
}

func TestGCSparesCheckpoints(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gamma")
	if _, err := s.Put(k, testDoc("gamma")); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoints(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(3, testState(3)); err != nil {
		t.Fatal(err)
	}

	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}

	var st ckptState
	if w, ok, err := ck.Latest(&st); err != nil || !ok || w != 3 {
		t.Fatalf("GC swept a checkpoint (w=%d ok=%v err=%v)", w, ok, err)
	}
}
