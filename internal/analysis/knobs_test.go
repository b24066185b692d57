package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knobAllowlist names the config fields that no program sets but that
// stay configurable on purpose, each with the test that varies it to
// exercise shipped code. A key is a field (path.Type.Field) or, for the
// paper's calibration table, a type (path.Type), which covers every
// field of it the scan flags. An entry the scan no longer flags fails
// TestKnobs.
var knobAllowlist = map[string]string{
	"torhs/internal/hspop.Config":                                   "calibration table: hspop.TestConfig and the population tests shrink the paper's counts to a test-sized population",
	"torhs/internal/core/deanon.ServiceConfig.Days":                 "observation length: the service_test campaigns run 3 to 60 days to reach full and partial guard control",
	"torhs/internal/core/deanon.ServiceConfig.GuardControlFraction": "guard share: the service_test campaigns compare full, partial and tiny guard control",
	"torhs/internal/core/tracking.Config.FreshFlagWindow":           "detector threshold: TestDetectionAblationPositionalRules neutralises it",
	"torhs/internal/core/tracking.Config.MinSwitches":               "detector threshold: TestDetectionAblationPositionalRules neutralises it",
	"torhs/internal/core/tracking.Config.RatioStrong":               "detector threshold: TestDetectionAblationPositionalRules neutralises it",
	"torhs/internal/core/tracking.Config.RatioSuspicious":           "detector threshold: TestDetectionAblationPositionalRules neutralises it",
	"torhs/internal/core/tracking.Config.SwitchLead":                "detector threshold: TestDetectionAblationPositionalRules neutralises it",
	"torhs/internal/core/tracking.ScenarioConfig.BandEnd":           "episode day: TestScenarioMatchesScanningOracle moves the episodes across a 2,000-day history",
	"torhs/internal/core/tracking.ScenarioConfig.BandStart":         "episode day: TestScenarioMatchesScanningOracle moves the episodes across a 2,000-day history",
	"torhs/internal/core/tracking.ScenarioConfig.TakeoverDay":       "episode day: TestScenarioMatchesScanningOracle moves the episodes across a 2,000-day history",
	"torhs/internal/core/tracking.ScenarioConfig.InitialRelays":     "network growth: TestScenarioMatchesScanningOracle grows a smaller network over its 2,000-day history",
	"torhs/internal/core/tracking.ScenarioConfig.FinalRelays":       "network growth: TestScenarioMatchesScanningOracle grows a smaller network over its 2,000-day history",
	"torhs/internal/core/webcrawl.Config.MaxPages":                  "page budget: TestCrawlRespectsPageBudget cuts the crawl short with it",
}

// TestKnobs fails on any exported field of an exported ...Config struct
// of the module that no program sets: a constant in disguise, which
// every reader must still check for a second value. A field is set when
// non-test code of the module or of perfbench writes it from outside its
// declaring package, or writes it a value that is not a constant. A
// write is a composite-literal element, an assignment or increment, or
// taking the field's address.
func TestKnobs(t *testing.T) {
	mod, bench := loadTree(t)

	fields := map[string]token.Position{} // path.Type.Field -> declaration
	structs := 0
	for _, p := range mod {
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			tk := p.Path + "." + name
			structs++
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[tk+"."+f.Name()] = p.Fset.Position(f.Pos())
				}
			}
		}
	}
	t.Logf("%d exported fields in %d config structs", len(fields), structs)

	set := map[string]bool{}
	for _, p := range append(append([]*Package{}, mod...), bench...) {
		w := knobWriter{p: p, set: set}
		for _, f := range p.Files {
			ast.Inspect(f, w.visit)
		}
	}

	flagged := map[string]bool{}
	var unset []string
	for k := range fields {
		if set[k] {
			continue
		}
		tk := k[:strings.LastIndexByte(k, '.')]
		if _, ok := knobAllowlist[k]; ok {
			flagged[k] = true
			continue
		}
		if _, ok := knobAllowlist[tk]; ok {
			flagged[tk] = true
			continue
		}
		unset = append(unset, k)
	}
	for k := range knobAllowlist {
		if !flagged[k] {
			t.Errorf("allowlist entry %s is stale: the scan does not flag it", k)
		}
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("%s: %s is set by no program; make it a constant, or allowlist it with the test that varies it", fields[k], k)
	}
}

// knobWriter records in set the config fields that package p writes.
type knobWriter struct {
	p   *Package
	set map[string]bool
}

func (w knobWriter) visit(n ast.Node) bool {
	info := w.p.TypesInfo
	switch n := n.(type) {
	case *ast.CompositeLit:
		named, st := namedStruct(info.TypeOf(n))
		if st == nil {
			break
		}
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					w.write(named, id.Name, kv.Value)
				}
			} else if i < st.NumFields() {
				w.write(named, st.Field(i).Name(), e)
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			var value ast.Expr // nil for x op= y and a multi-value call
			if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
				value = n.Rhs[i]
			}
			w.writeSelector(lhs, value)
		}
	case *ast.IncDecStmt:
		w.writeSelector(n.X, nil)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.writeSelector(n.X, nil)
		}
	}
	return true
}

// writeSelector records a write of value (nil: a value that is not a
// constant) to lhs when lhs selects a struct field.
func (w knobWriter) writeSelector(lhs, value ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := w.p.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	// Walk embedded fields to the struct that declares the field.
	typ := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		_, st := namedStruct(typ)
		if st == nil {
			return
		}
		typ = st.Field(i).Type()
	}
	named, _ := namedStruct(typ)
	w.write(named, sel.Sel.Name, value)
}

// write records that field of named is written value (nil: a value
// that is not a constant).
func (w knobWriter) write(named *types.Named, field string, value ast.Expr) {
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	pkg := named.Obj().Pkg().Path()
	if pkg != w.p.Path || value == nil || !constantValue(w.p.TypesInfo, value) {
		w.set[pkg+"."+named.Obj().Name()+"."+field] = true
	}
}

// constantValue reports whether e is a constant or nil.
func constantValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && (tv.Value != nil || tv.IsNil())
}

// namedStruct returns t's named type and struct, through one pointer.
func namedStruct(t types.Type) (*types.Named, *types.Struct) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, _ := n.Underlying().(*types.Struct)
	return n, st
}
