// Command torhsvet runs torhs's static-analysis suite (see
// internal/analysis): detorder, detrand, ctxflow and windowring — the
// compile-time proofs of the determinism, cancellation-plumbing and
// streaming-retention contracts.
//
// Standalone (the CI entry point; exits 0 only when every package is
// clean):
//
//	go run ./cmd/torhsvet ./...
//
// As a vet tool, speaking the go vet unitchecker protocol:
//
//	go build -o torhsvet ./cmd/torhsvet
//	go vet -vettool=$PWD/torhsvet ./...
//
// -list prints the suite with one-line contract descriptions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"torhs/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("torhsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	version := fs.String("V", "", "print version and exit (go vet protocol)")
	printFlags := fs.Bool("flags", false, "print analyzer flags as JSON (go vet protocol)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (go vet protocol)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: torhsvet [-list] [packages]\n   or: go vet -vettool=torhsvet [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *version != "":
		// The go command stamps its vet cache with this line; the exact
		// format ("name version ...") is what cmd/go expects from -V=full.
		fmt.Fprintf(stdout, "torhsvet version v1.0.0\n")
		return 0
	case *printFlags:
		fmt.Fprintln(stdout, "[]")
		return 0
	case *list:
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck(rest[0], *jsonOut, stdout, stderr)
	}
	return standalone(rest, stderr)
}

// standalone loads the named patterns with the go command and analyzes
// every matched package.
func standalone(patterns []string, stderr io.Writer) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "torhsvet: %v\n", err)
		return 1
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analysis.All())
		if err != nil {
			fmt.Fprintf(stderr, "torhsvet: %v\n", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "torhsvet: %d finding(s)\n", found)
		return 2
	}
	return 0
}

// vetConfig is the JSON the go command hands a -vettool per package
// (the x/tools unitchecker wire format).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// decodeVetConfig decodes a go vet config file. Unknown fields are
// accepted: the go command adds fields to the format over time.
func decodeVetConfig(data []byte) (vetConfig, error) {
	var cfg vetConfig
	err := json.Unmarshal(data, &cfg)
	return cfg, err
}

// unitcheck analyzes one package described by a go vet config file.
func unitcheck(cfgFile string, jsonOut bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(stderr, "torhsvet: %v\n", err)
		return 1
	}
	cfg, err := decodeVetConfig(data)
	if err != nil {
		fmt.Fprintf(stderr, "torhsvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The suite needs no cross-package facts, but the protocol requires
	// the facts file to exist for dependents.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "torhsvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(stderr, "torhsvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tconf := types.Config{Importer: imp}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "torhsvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	pkg := &analysis.Package{
		Path:      cfg.ImportPath,
		Name:      tpkg.Name(),
		Dir:       cfg.Dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	diags, err := analysis.Run(pkg, analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "torhsvet: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	if jsonOut {
		// go vet -json expects {"package": {"analyzer": [diagnostics]}}.
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := map[string][]jsonDiag{}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
				Posn:    fset.Position(d.Pos).String(),
				Message: d.Message,
			})
		}
		out, _ := json.MarshalIndent(map[string]map[string][]jsonDiag{cfg.ImportPath: byAnalyzer}, "", "\t")
		fmt.Fprintf(stdout, "%s\n", out)
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return 2
}
