package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"torhs/internal/report"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

// goldenSmokePath is the committed smoke-study render.
var goldenSmokePath = filepath.Join("testdata", "golden_smoke_study.txt")

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_smoke_study.txt from the current pipeline")

// goldenSmoke is the smoke-scenario study (seed 42) run once through
// RunStudy and shared by the golden tests: its text render, and every
// experiment's document as persisted in a throwaway result store.
var goldenSmoke struct {
	once sync.Once
	text []byte
	docs map[string]*report.Document
	err  error
}

func goldenSmokeStudy(t *testing.T) ([]byte, map[string]*report.Document) {
	t.Helper()
	goldenSmoke.once.Do(func() {
		goldenSmoke.err = func() error {
			dir, err := os.MkdirTemp("", "golden-smoke-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			store, err := resultstore.Open(dir)
			if err != nil {
				return err
			}
			cfg := ConfigFromSpec(scenario.MustLookup(scenario.Smoke), 42)
			env, err := NewEnv(cfg)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if _, err := Paper().RunStudy(context.Background(), env, RunOptions{Store: store}, &buf); err != nil {
				return err
			}
			docs := make(map[string]*report.Document)
			for _, name := range Paper().Names() {
				doc, _, ok, err := store.Get(storeKey(cfg, "custom", name))
				if err != nil {
					return err
				}
				if ok {
					docs[name] = doc
				}
			}
			goldenSmoke.text, goldenSmoke.docs = buf.Bytes(), docs
			return nil
		}()
	})
	if goldenSmoke.err != nil {
		t.Fatal(goldenSmoke.err)
	}
	return goldenSmoke.text, goldenSmoke.docs
}

// TestGoldenSmokeStudy pins the full smoke-scenario study render to a
// committed reference captured from the pre-document-model pipeline
// (PR 4), so the report refactor's byte-identical guarantee is enforced
// against a fixed artefact rather than only cross-subset. An
// intentional output change must regenerate the file with
//
//	go test ./internal/experiments -run TestGoldenSmokeStudy -update-golden
//
// and bump OutputVersion so persisted store entries invalidate too.
func TestGoldenSmokeStudy(t *testing.T) {
	got, _ := goldenSmokeStudy(t)

	if *updateGolden {
		if err := os.WriteFile(goldenSmokePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten (%d bytes) — remember to bump OutputVersion", len(got))
		return
	}
	want, err := os.ReadFile(goldenSmokePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("smoke full-study render differs from the committed golden file (%d vs %d bytes).\n"+
			"If the change is intentional, rerun with -update-golden and bump OutputVersion.\n--- got ---\n%s",
			len(got), len(want), got)
	}
}

// goldenSmokeJSON holds the sha256 of every experiment's canonical JSON
// document in the smoke study (seed 42). The text golden file pins only
// what the text encoder shows; these pin the structured model itself —
// field names, value kinds, formats and node order — which the result
// store hashes and hsserve serves. An intentional change updates this
// table (the failure message prints the new hash) and bumps
// OutputVersion or report.SchemaVersion.
var goldenSmokeJSON = map[string]string{
	ExpCollection:    "8c8479a651066d4b7603d1e61cb7eacd74a60de354337cedf25476039f7db1ea",
	ExpScan:          "03b891a8817b664989f1a0318976555e464f57bad21d0b4a95e9b0ccb91d79b0",
	ExpContent:       "09725c312353df0ce8cf2d991758b1a529d2ea432074ba65e477036416c23e2a",
	ExpPrefixAudit:   "411ad6fe64f4abaf673584376c2bb78e19d7a7ee69593c3b468015b25e2cebbb",
	ExpPopularity:    "733306ed0be21915a446fcaee207bbb1f77b3d94510ab284f9b454f660f5c847",
	ExpDeanon:        "ded4cf9834dddcea565f65e2077b79bf1f6a46854c0d5a6d01fafbf4c93472f0",
	ExpServiceDeanon: "23e3dd186ef069b90640c3abf8602693f9cc805dbff944686a4054b61b7d66b6",
	ExpTracking:      "fa781576e525928674eb74e961d44ec6eb6f1bb5331b2c5c9ac62a3bb94bfd53",
}

// TestGoldenSmokeCanonicalJSON pins each smoke-study document's
// canonical JSON bytes.
func TestGoldenSmokeCanonicalJSON(t *testing.T) {
	_, docs := goldenSmokeStudy(t)
	if len(docs) != len(goldenSmokeJSON) {
		t.Fatalf("study persisted %d documents, golden table has %d", len(docs), len(goldenSmokeJSON))
	}
	for _, name := range Paper().Names() {
		doc, ok := docs[name]
		if !ok {
			t.Errorf("%s: no document persisted", name)
			continue
		}
		b, err := report.CanonicalJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != goldenSmokeJSON[name] {
			t.Errorf("%s: canonical JSON sha256 = %s, want %s", name, got, goldenSmokeJSON[name])
		}
	}
}
