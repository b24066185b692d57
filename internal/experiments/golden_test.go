package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"torhs/internal/scenario"
)

// goldenSmokePath is the committed smoke-study render.
var goldenSmokePath = filepath.Join("testdata", "golden_smoke_study.txt")

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_smoke_study.txt from the current pipeline")

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
	cfg := ConfigFromSpec(scenario.MustLookup(scenario.Smoke), 42)
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Paper().Run(context.Background(), env, nil, &buf); err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.WriteFile(goldenSmokePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten (%d bytes) — remember to bump OutputVersion", buf.Len())
		return
	}
	want, err := os.ReadFile(goldenSmokePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("smoke full-study render differs from the committed golden file (%d vs %d bytes).\n"+
			"If the change is intentional, rerun with -update-golden and bump OutputVersion.\n--- got ---\n%s",
			buf.Len(), len(want), buf.String())
	}
}
