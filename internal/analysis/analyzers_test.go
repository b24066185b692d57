package analysis

import (
	"strings"
	"testing"
)

func TestDetOrderGolden(t *testing.T) {
	testAnalyzer(t, DetOrder, "./testdata/src/detorder")
}

func TestDetRandGolden(t *testing.T) {
	testAnalyzer(t, DetRand, "./testdata/src/detrand")
}

func TestCtxFlowGolden(t *testing.T) {
	testAnalyzer(t, CtxFlow, "./testdata/src/ctxflow")
}

// TestCtxFlowMisplaced covers the diagnostic the golden harness cannot
// express: a cancelpoint directive that documents anything but a
// function declaration is reported on the comment's own line.
func TestCtxFlowMisplaced(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ctxflowbad")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags, err := Run(pkgs[0], []*Analyzer{CtxFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "must document a function declaration") {
		t.Fatalf("diagnostics = %+v, want one misplaced-directive finding", diags)
	}
}

func TestWindowRingGolden(t *testing.T) {
	testAnalyzer(t, WindowRing, "./testdata/src/windowring")
}

// TestWindowRingMisplaced covers the diagnostic the golden harness
// cannot express: a retained directive that documents anything but a
// struct field is reported on the comment's own line.
func TestWindowRingMisplaced(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/windowringbad")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags, err := Run(pkgs[0], []*Analyzer{WindowRing})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "must document a struct field") {
		t.Fatalf("diagnostics = %+v, want one misplaced-directive finding", diags)
	}
}

// TestOutOfScopeSilent pins the scope gate: the scope-driven analyzers
// must say nothing about packages outside the deterministic set, however
// nondeterministic their code.
func TestOutOfScopeSilent(t *testing.T) {
	assertNoDiags(t, DetOrder, "./testdata/src/outofscope")
	assertNoDiags(t, DetRand, "./testdata/src/outofscope")
	assertNoDiags(t, WindowRing, "./testdata/src/outofscope")
}
