package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WindowRing proves the streaming pipeline's bounded-working-set
// contract: in the deterministic packages, no long-lived struct quietly
// accumulates consensus documents. The window-consuming kernels fold
// each document and let it go — the whole bounded-RSS story of the
// streaming pipeline rests on retired windows actually becoming
// garbage. A struct field whose type can hold a consensus.Document
// (directly, or through any composition of pointers, slices, arrays,
// maps, channels, anonymous structs, or generic type arguments) must
// carry an audited //torhs:retained <reason> directive explaining why
// its retention is bounded. Today's retentions are the tracking sweep's
// sliding window ring, a per-step network's own consensus window, and the
// experiments' fixed set of single-offset consensus memos.
//
// The walk deliberately does not descend into named types' underlying
// structure: a field of type *consensus.History is the history
// abstraction's business, not a covert per-field document cache. Only the field's own compositional
// spelling is audited, so the directive always sits next to the slice
// or map that actually does the retaining.
var WindowRing = &Analyzer{
	Name: "windowring",
	Doc: "struct fields in deterministic packages that can hold consensus documents " +
		"must carry //torhs:retained <reason>: streamed windows must retire to garbage",
	Run: runWindowRing,
}

func runWindowRing(pass *Pass) error {
	if !InScope(pass.Pkg) {
		return nil
	}
	consumed := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				checkRetention(pass, ts.Name.Name, st, consumed)
			}
		}
	}
	// A retained directive that attached to anything but a struct field
	// protects nothing; report it rather than let it rot.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && d.kind == dirRetained && !consumed[d.pos] {
					pass.Reportf(d.pos, "//torhs:retained must document a struct field")
				}
			}
		}
	}
	return nil
}

// checkRetention audits one struct declaration's fields.
func checkRetention(pass *Pass, typeName string, st *ast.StructType, consumed map[token.Pos]bool) {
	for _, field := range st.Fields.List {
		reason, exempt := fieldDirective(field, dirRetained)
		if exempt {
			if cg := field.Doc; hasKind(cg, dirRetained) {
				consumed[directivePos(cg, dirRetained)] = true
			} else {
				consumed[directivePos(field.Comment, dirRetained)] = true
			}
		}
		t := pass.TypesInfo.TypeOf(field.Type)
		holds := t != nil && holdsDocument(t, map[types.Type]bool{})
		name := fieldLabel(pass, field)
		switch {
		case holds && !exempt:
			pass.Reportf(field.Pos(), "%s.%s can hold consensus documents past the window fold: "+
				"bound the retention and document it with //torhs:retained <reason>, or drop the field",
				typeName, name)
		case holds && exempt && reason == "":
			pass.Reportf(field.Pos(), "//torhs:retained on %s.%s needs a reason saying why the retention is bounded",
				typeName, name)
		case !holds && exempt:
			pass.Reportf(field.Pos(), "%s.%s carries //torhs:retained but cannot hold a consensus document: "+
				"stale directive — delete it", typeName, name)
		}
	}
}

// fieldLabel names a field for diagnostics: the first declared name, or
// the embedded type's name.
func fieldLabel(pass *Pass, field *ast.Field) string {
	if len(field.Names) > 0 {
		return field.Names[0].Name
	}
	t := pass.TypesInfo.TypeOf(field.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "(anonymous)"
}

// hasKind reports whether the comment group carries the directive kind.
func hasKind(cg *ast.CommentGroup, kind string) bool {
	_, ok := hasDirective(cg, kind)
	return ok
}

// holdsDocument reports whether a value of type t can reference a
// consensus.Document through type composition alone: pointers, slices,
// arrays, maps, channels, anonymous structs, and generic type arguments
// are traversed; named types' underlying structure is not (their
// retention is their own declaration's contract).
func holdsDocument(t types.Type, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Pointer:
		return holdsDocument(t.Elem(), seen)
	case *types.Slice:
		return holdsDocument(t.Elem(), seen)
	case *types.Array:
		return holdsDocument(t.Elem(), seen)
	case *types.Map:
		return holdsDocument(t.Key(), seen) || holdsDocument(t.Elem(), seen)
	case *types.Chan:
		return holdsDocument(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsDocument(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Named:
		if isConsensusDocument(t) {
			return true
		}
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				if holdsDocument(args.At(i), seen) {
					return true
				}
			}
		}
	}
	return false
}

// isConsensusDocument matches the consensus package's Document type by
// name, so analysistest fixtures shadowing the package participate.
func isConsensusDocument(n *types.Named) bool {
	obj := n.Obj()
	return obj != nil && obj.Name() == "Document" && obj.Pkg() != nil && obj.Pkg().Name() == "consensus"
}
