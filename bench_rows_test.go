package torhs

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestBenchLatestRowsAreDeclared fails on a BENCH_latest.json row whose
// benchmark bench_test.go no longer declares: the top-level name must be
// a Benchmark function there, and a sub-benchmark's name must be one of
// that file's string literals (the sub-benchmark tables and helpers
// spell them out). A deleted benchmark's row would otherwise linger as a
// regression-gate baseline that nothing can reproduce.
func TestBenchLatestRowsAreDeclared(t *testing.T) {
	data, err := os.ReadFile("BENCH_latest.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct{ Name string }
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "bench_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs, literals := map[string]bool{}, map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv == nil && strings.HasPrefix(n.Name.Name, "Benchmark") {
				funcs[n.Name.Name] = true
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				literals[s] = true
			}
		}
		return true
	})
	if len(rows) == 0 {
		t.Fatal("BENCH_latest.json holds no rows")
	}
	for _, r := range rows {
		top, sub, hasSub := strings.Cut(r.Name, "/")
		if !funcs[top] {
			t.Errorf("BENCH_latest.json row %s: bench_test.go declares no %s", r.Name, top)
		} else if hasSub && !literals[sub] {
			t.Errorf("BENCH_latest.json row %s: bench_test.go spells no sub-benchmark %q", r.Name, sub)
		}
	}
}
