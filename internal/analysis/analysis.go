// Package analysis is torhs's static-analysis suite: repo-specific
// analyzers that prove the codebase's load-bearing contracts at compile
// time, plus the package loader and directive machinery that drive them.
//
// The contracts (see README "Static guarantees"):
//
//   - detorder: deterministic packages never let map iteration order
//     reach an order-sensitive sink (byte-identical study output at
//     every worker count).
//   - detrand: deterministic packages draw randomness only from
//     seed-derived sources (parallel.SeedFor / parallel.NewRNG) and
//     never read ambient state (time.Now, os.Getenv, global math/rand).
//   - ctxflow: context.Context is the first parameter and never a
//     struct field, and every //torhs:cancelpoint function checks its
//     context inside its outermost loop.
//   - windowring: deterministic packages never let a long-lived struct
//     field accumulate consensus documents without an audited
//     //torhs:retained exemption — the streaming pipeline's bounded
//     working set depends on retired windows becoming garbage.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer
// / Pass / Diagnostic) so the suite can migrate to the upstream
// framework (and its unitchecker) wholesale if the dependency ever
// becomes available; the build environment is offline, so everything
// here runs on the standard library plus the go command.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //torhs:ignore directives.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run applies the check to a single type-checked package.
	Run func(*Pass) error
}

// Pass is the interface between one Analyzer and one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// directives holds the parsed //torhs: directives of the package,
	// shared by every analyzer in the run.
	directives *directiveIndex

	diagnostics []Diagnostic
}

// Diagnostic is one finding, attributed to the exact token position of
// the violating construct.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string

	// suppressed is set by the driver when a //torhs:ignore directive
	// covers the diagnostic; suppressed diagnostics are not reported
	// but mark their directive as used.
	suppressed bool
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetOrder, DetRand, CtxFlow, WindowRing}
}

// byName resolves an analyzer name; used to validate ignore directives.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies every analyzer in as to pkg, filters the findings through
// the package's //torhs:ignore directives, and returns the surviving
// diagnostics (directive problems included) sorted by position.
//
// The returned diagnostics are the tool's contract: an empty slice
// means the package satisfies every analyzed invariant or carries an
// audited suppression for each exception.
//
// Test files are exempt: the contracts govern study output, and test
// determinism is enforced separately (go test -shuffle=on in CI). The
// standalone loader never sees them; the go vet path does, so they are
// filtered here.
func Run(pkg *Package, as []*Analyzer) ([]Diagnostic, error) {
	files := pkg.Files[:0:0]
	for _, f := range pkg.Files {
		if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	pkg = &Package{
		Path: pkg.Path, Name: pkg.Name, Dir: pkg.Dir, Fset: pkg.Fset,
		Files: files, Types: pkg.Types, TypesInfo: pkg.TypesInfo,
	}
	dirs, derrs := parseDirectives(pkg.Fset, pkg.Files)
	var all []Diagnostic
	all = append(all, derrs...)
	for _, a := range as {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			directives: dirs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
		all = append(all, pass.diagnostics...)
	}
	all = append(all, dirs.apply(pkg.Fset, all)...)
	kept := all[:0]
	for _, d := range all {
		if !d.suppressed {
			kept = append(kept, d)
		}
	}
	slices.SortStableFunc(kept, func(a, b Diagnostic) int {
		pa, pb := pkg.Fset.Position(a.Pos), pkg.Fset.Position(b.Pos)
		return cmp.Or(cmp.Compare(pa.Filename, pb.Filename), cmp.Compare(pa.Line, pb.Line),
			cmp.Compare(pa.Column, pb.Column), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return kept, nil
}
