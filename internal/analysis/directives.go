package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// The suite's comment directives. All of them are audited: ignore and
// retained require a reason, unknown or unused directives are
// themselves diagnostics, so a suppression can never silently rot.
//
//	//torhs:ignore <analyzer> <reason>   suppress <analyzer> findings on
//	                                     this line or the line below
//	//torhs:orderinsensitive <reason>    (func doc) calls to this function
//	                                     are accepted inside map ranges
//	//torhs:cancelpoint                  (func doc) the function is a
//	                                     kernel cancellation boundary: it
//	                                     takes a context and must check
//	                                     ctx.Err()/ctx.Done() inside its
//	                                     outermost loop
//	//torhs:retained <reason>            (struct field) the field
//	                                     deliberately retains consensus
//	                                     documents past a streaming fold;
//	                                     the reason must say why the
//	                                     retention is bounded
const (
	dirIgnore           = "ignore"
	dirOrderInsensitive = "orderinsensitive"
	dirCancelPoint      = "cancelpoint"
	dirRetained         = "retained"
)

// directivePrefix introduces every torhs directive comment.
const directivePrefix = "//torhs:"

// diagDirective is the pseudo-analyzer name attached to malformed or
// unused directives. It is deliberately not a real analyzer, so
// directive problems cannot themselves be suppressed.
const diagDirective = "directive"

// directive is one parsed //torhs: comment.
type directive struct {
	pos  token.Pos
	kind string // dirIgnore, dirHotPath, ...
	args string // everything after the kind, space-trimmed
}

// parseDirective parses a single comment; ok is false for ordinary
// comments that are not torhs directives.
func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	kind, args, _ := strings.Cut(rest, " ")
	return directive{pos: c.Pos(), kind: kind, args: strings.TrimSpace(args)}, true
}

// ignoreDirective is an //torhs:ignore occurrence with use tracking.
type ignoreDirective struct {
	pos      token.Pos
	analyzer string
	reason   string
	used     bool
}

// directiveIndex holds every ignore directive of a package, keyed by
// file and line for suppression lookup.
type directiveIndex struct {
	// ignores maps "<file>:<line>" of the directive comment to the
	// directives on that line.
	ignores map[string][]*ignoreDirective
}

func lineKey(pos token.Position) string {
	// The filename/line pair as a map key; columns are irrelevant.
	return pos.Filename + ":" + strconv.Itoa(pos.Line)
}

// parseDirectives scans every comment of the package, building the
// suppression index and reporting malformed directives: unknown kinds,
// ignores naming unknown analyzers, and ignores without a reason.
// orderinsensitive / cancelpoint / retained directives are validated
// where they are consumed (they are positional: their meaning depends
// on the declaration they document).
func parseDirectives(fset *token.FileSet, files []*ast.File) (*directiveIndex, []Diagnostic) {
	ix := &directiveIndex{ignores: map[string][]*ignoreDirective{}}
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: diagDirective, Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				switch d.kind {
				case dirOrderInsensitive, dirCancelPoint, dirRetained:
					// Positional; consumed by detorder / ctxflow /
					// windowring respectively.
				case dirIgnore:
					analyzer, reason, _ := strings.Cut(d.args, " ")
					reason = strings.TrimSpace(reason)
					switch {
					case analyzer == "":
						report(d.pos, "//torhs:ignore needs an analyzer name and a reason")
					case byName(analyzer) == nil:
						report(d.pos, "//torhs:ignore names unknown analyzer "+strconv.Quote(analyzer))
					case reason == "":
						report(d.pos, "//torhs:ignore "+analyzer+" needs a reason")
					default:
						key := lineKey(fset.Position(d.pos))
						ix.ignores[key] = append(ix.ignores[key], &ignoreDirective{
							pos: d.pos, analyzer: analyzer, reason: reason,
						})
					}
				default:
					report(d.pos, "unknown directive //torhs:"+d.kind)
				}
			}
		}
	}
	return ix, diags
}

// apply marks diagnostics covered by an ignore directive as suppressed
// (a directive on line L covers findings on L — trailing comment — and
// L+1 — comment line above the construct) and returns diagnostics for
// directives that suppressed nothing, so stale ignores cannot linger.
func (ix *directiveIndex) apply(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	for i := range diags {
		d := &diags[i]
		if d.Analyzer == diagDirective {
			continue
		}
		pos := fset.Position(d.Pos)
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, ig := range ix.ignores[pos.Filename+":"+strconv.Itoa(line)] {
				if ig.analyzer == d.Analyzer {
					d.suppressed = true
					ig.used = true
				}
			}
		}
	}
	var unused []Diagnostic
	for _, igs := range ix.ignores {
		for _, ig := range igs {
			if !ig.used {
				unused = append(unused, Diagnostic{
					Pos:      ig.pos,
					Analyzer: diagDirective,
					Message:  "unused //torhs:ignore " + ig.analyzer + " (no " + ig.analyzer + " finding here — delete it)",
				})
			}
		}
	}
	return unused
}

// hasDirective reports whether the comment group carries the given
// directive kind, returning its arguments.
func hasDirective(cg *ast.CommentGroup, kind string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok && d.kind == kind {
			return d.args, true
		}
	}
	return "", false
}

// directivePos finds the comment position of the given directive kind
// within the group (the group is known to carry it).
func directivePos(cg *ast.CommentGroup, kind string) token.Pos {
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok && d.kind == kind {
			return d.pos
		}
	}
	return cg.Pos()
}

// fieldDirective looks for kind on a struct field's doc or trailing
// line comment.
func fieldDirective(field *ast.Field, kind string) (string, bool) {
	if args, ok := hasDirective(field.Doc, kind); ok {
		return args, ok
	}
	return hasDirective(field.Comment, kind)
}
