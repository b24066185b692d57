package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names the declarations that no program reaches but that
// stay on purpose: oracles that other packages' tests compare a kernel
// against, and seams that tests drive. Each entry carries its reason. An
// entry the scan no longer flags fails TestReachability, so the list
// cannot outlive what it excuses.
var reachAllowlist = map[string]string{
	"torhs/internal/core/popularity.ResolveBruteForce":     "oracle: TestResolveBruteForceMatchesIndexed and TestResolveForcedCollisions pin the indexed resolver to this per-service re-derivation",
	"torhs/internal/core/trawl.Harvest.State":              "seam: the harvest and packing tests and the gated BenchmarkCheckpointSave read a harvest's snapshot state through it",
	"torhs/internal/fault.Active":                          "seam: tests that install an injector restore the previous one with it",
	"torhs/internal/fault.Injector.Fires":                  "seam: the fault and DAG tests count a site's fired rules with it",
	"torhs/internal/fault.Injector.Hits":                   "seam: the study-level cancel tests wait for a site's hit count with it",
	"torhs/internal/geo.DB.Lookup":                         "oracle: the deanon tests geolocate every detected client IP with it, and the geo tests round-trip AllocateIP through it",
	"torhs/internal/hsdir.RequestLog.CompactState":         "seam: the request-log, trawl and simnet tests compare logs by their full state",
	"torhs/internal/hsdir.Ring.ResponsibleLinear":          "oracle: TestResponsibleMatchesLinear and the simnet resolve tests pin the binary-search Responsible to this linear scan",
	"torhs/internal/hspop.Population.DerivedDescriptorIDs": "seam: TestTrawlsDeriveEachDescriptorIDOnce and TestDescriptorIDsAtFillsEachPeriodOnce count the IDs the period cache derives",
	"torhs/internal/hspop.TestConfig":                      "seam: the small population other packages' tests generate",
	"torhs/internal/hsproto.Decode":                        "oracle: FuzzDecode and the descriptor tests round-trip every encoded descriptor through it",
	"torhs/internal/onion.DescriptorIDsOverRange":          "oracle: TestSecretIDTableMatchesDirectDerivation and the popularity tests derive a window's IDs directly with it",
	"torhs/internal/onion.ringIntFromBytes":                "seam: the RingInt tests build operands from raw bytes with it",
	"torhs/internal/parallel.DAG.SetRetry":                 "seam: the DAG tests set the retry policy the scheduler's callers leave at its default",
	"torhs/internal/race.Enabled":                          "seam: allocation-count tests skip under the race detector",
}

// stdlibDispatched names methods the standard library calls through
// interfaces it never exports, so no exported interface keeps them live.
var stdlibDispatched = map[string]bool{
	"Is":     true, // errors.Is
	"As":     true, // errors.As
	"Unwrap": true, // errors.Unwrap, errors.Is and errors.As
}

// TestReachability fails on any shipped declaration that no program
// reaches. Roots are every main and init function of the module and of
// perfbench (loaded as its own module, so it supplies roots and is never
// flagged) and every export of the root package torhs. Test files are not
// roots. A declaration is reached through the identifiers of a reached
// declaration; a method is also reached when its receiver type is reached
// and implements an interface declaring it, and an iota constant when its
// type is reached (deleting one would renumber the rest).
func TestReachability(t *testing.T) {
	mod, bench := loadTree(t)
	g := newReachGraph()
	for _, p := range mod {
		g.addPackage(p, true)
	}
	for _, p := range bench {
		g.addPackage(p, false)
	}
	g.walk(g.roots)
	for k := range reachAllowlist {
		if d, ok := g.decls[k]; !ok || !d.report || g.live[k] {
			t.Errorf("allowlist entry %s is stale: the scan does not flag it", k)
		}
	}

	// What an allowlisted declaration uses stays with it.
	var kept []string
	for k := range reachAllowlist {
		kept = append(kept, k)
	}
	g.walk(kept)
	var dead []string
	for k, d := range g.decls {
		if d.report && !g.live[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s: %s is reached by no program; delete it, or allowlist it with a reason", g.decls[k].pos, k)
	}
}

// loadedTree type-checks the module and perfbench (its own module) once
// per test binary; TestReachability and TestKnobs read the same load.
var loadedTree = sync.OnceValues(func() (tree, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return tree{}, err
	}
	mod, err := Load(root, "./...")
	if err != nil {
		return tree{}, err
	}
	bench, err := Load(filepath.Join(root, "perfbench"), "./...")
	return tree{mod, bench}, err
})

// tree is the loaded module and perfbench.
type tree struct{ mod, bench []*Package }

// loadTree returns the loaded module and perfbench packages. It skips
// under -short.
func loadTree(t *testing.T) (mod, bench []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module through go list -export")
	}
	tr, err := loadedTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr.mod, tr.bench
}

// reachDecl is one package-level declaration or method.
type reachDecl struct {
	pos    token.Position
	report bool     // declared in the module, not in perfbench
	uses   []string // keys of the declarations its source names
}

type reachGraph struct {
	decls   map[string]*reachDecl
	live    map[string]bool
	roots   []string
	named   map[string]*types.Named // declared types by key
	ifaces  []*types.Interface      // interfaces with methods, module and stdlib
	iotaOf  map[string][]string     // type key -> constants of its iota blocks
	pkgSeen map[*types.Package]bool // stdlib packages whose interfaces are counted
}

func newReachGraph() *reachGraph {
	return &reachGraph{
		decls:   map[string]*reachDecl{},
		live:    map[string]bool{},
		named:   map[string]*types.Named{},
		iotaOf:  map[string][]string{},
		pkgSeen: map[*types.Package]bool{},
		ifaces:  []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
}

// reachKey names a package-level object or a concrete method by package
// path, receiver and name, so objects from separate loads (and from export
// data) meet. It is "" for anything else.
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			n, ok := rt.(*types.Named)
			if !ok {
				return ""
			}
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (g *reachGraph) addPackage(p *Package, report bool) {
	g.addStdlibInterfaces(p.Types)
	for _, tv := range p.TypesInfo.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			g.ifaces = append(g.ifaces, it)
		}
	}
	exported := p.Path == "torhs"
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				k := reachKey(p.TypesInfo.Defs[d.Name])
				g.declare(p, k, d.Name.Pos(), d, report)
				if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && p.Name == "main") ||
					(exported && d.Name.IsExported())) {
					g.roots = append(g.roots, k)
				}
			case *ast.GenDecl:
				g.addGenDecl(p, d, report, exported)
			}
		}
	}
}

func (g *reachGraph) addGenDecl(p *Package, d *ast.GenDecl, report, exported bool) {
	usesIota := false
	if d.Tok == token.CONST {
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				if _, ok := p.TypesInfo.Uses[id].(*types.Const); ok {
					usesIota = true
				}
			}
			return true
		})
	}
	for _, s := range d.Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			obj := p.TypesInfo.Defs[s.Name]
			k := reachKey(obj)
			g.declare(p, k, s.Name.Pos(), s, report)
			if n, ok := obj.Type().(*types.Named); ok {
				g.named[k] = n
			}
			if exported && s.Name.IsExported() {
				g.roots = append(g.roots, k)
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				// The spec's type and values are shared by its names;
				// a blank name runs at init, so it is a root.
				var node ast.Node = s
				if len(s.Values) == len(s.Names) {
					node = &ast.ValueSpec{Type: s.Type, Values: []ast.Expr{s.Values[i]}}
				}
				if name.Name == "_" {
					k := p.Path + "._@" + p.Fset.Position(name.Pos()).String()
					g.declare(p, k, name.Pos(), node, false)
					g.roots = append(g.roots, k)
					continue
				}
				obj := p.TypesInfo.Defs[name]
				k := reachKey(obj)
				g.declare(p, k, name.Pos(), node, report)
				if exported && name.IsExported() {
					g.roots = append(g.roots, k)
				}
				if usesIota {
					if n, ok := obj.Type().(*types.Named); ok {
						tk := reachKey(n.Obj())
						g.iotaOf[tk] = append(g.iotaOf[tk], k)
					}
				}
			}
		}
	}
}

// declare records the declaration k and the package-level objects and
// methods its syntax names.
func (g *reachGraph) declare(p *Package, k string, pos token.Pos, n ast.Node, report bool) {
	d := &reachDecl{pos: p.Fset.Position(pos), report: report}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if uk := reachKey(p.TypesInfo.Uses[id]); uk != "" && uk != k {
				d.uses = append(d.uses, uk)
			}
		}
		return true
	})
	g.decls[k] = d
}

// addStdlibInterfaces counts the exported interfaces of every standard
// library package pkg imports, directly or not.
func (g *reachGraph) addStdlibInterfaces(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		// The module has no dependencies outside the standard library.
		if g.pkgSeen[imp] || strings.HasPrefix(imp.Path(), "torhs") {
			continue
		}
		g.pkgSeen[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				g.ifaces = append(g.ifaces, it)
			}
		}
		g.addStdlibInterfaces(imp)
	}
}

// walk marks live everything reachable from roots.
func (g *reachGraph) walk(roots []string) {
	var queue []string
	mark := func(k string) {
		if k != "" && !g.live[k] {
			g.live[k] = true
			queue = append(queue, k)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		if d := g.decls[k]; d != nil {
			for _, u := range d.uses {
				mark(u)
			}
		}
		for _, c := range g.iotaOf[k] {
			mark(c)
		}
		n := g.named[k]
		if n == nil {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i).Name(); stdlibDispatched[m] || g.dispatched(n, m) {
				mark(k + "." + m)
			}
		}
	}
}

// dispatched reports whether some interface declaring method m can hold a
// value of type n or *n. A generic interface is matched by name alone.
func (g *reachGraph) dispatched(n *types.Named, m string) bool {
	ptr := types.NewPointer(n)
	for _, it := range g.ifaces {
		found := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		if n.TypeParams().Len() > 0 || !it.IsMethodSet() || types.Implements(n, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
