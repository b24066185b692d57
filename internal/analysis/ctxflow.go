package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow proves the cancellation-plumbing contract the execution stack
// leans on:
//
//   - a context.Context parameter is always the first parameter — the
//     convention every call site in the module relies on when threading
//     cancellation downward (receivers aside; variadic or later
//     positions hide the context from readers and from this suite);
//   - context.Context is never stored in a struct field: a context is
//     scoped to a call tree, and a struct-held context silently outlives
//     the request or study that created it (trawl's Checkpointer
//     takes ctx per call for exactly this reason);
//   - every function annotated //torhs:cancelpoint — the sharded-kernel
//     boundaries (the simnet window plan, the trawl step loop, the
//     tracking document sweep, the hspop phase sequence) — declares a
//     context parameter and checks ctx.Err() or ctx.Done() inside at
//     least one of its outermost loops, so a cancelled study always
//     stops at a window boundary instead of running the kernel to
//     completion.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Context must be the first parameter and never a struct field; " +
		"//torhs:cancelpoint functions must check ctx inside their outermost loop",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	consumed := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxParamOrder(pass, n.Type)
				if _, ok := hasDirective(n.Doc, dirCancelPoint); ok {
					consumed[directivePos(n.Doc, dirCancelPoint)] = true
					checkCancelPoint(pass, n)
				}
			case *ast.FuncLit:
				checkCtxParamOrder(pass, n.Type)
			case *ast.StructType:
				checkCtxFields(pass, n)
			case *ast.InterfaceType:
				// Interface methods follow the same ordering convention.
				for _, m := range n.Methods.List {
					if ft, ok := m.Type.(*ast.FuncType); ok {
						checkCtxParamOrder(pass, ft)
					}
				}
			}
			return true
		})
	}
	// A cancelpoint directive that attached to anything but a function
	// declaration guards nothing; report it rather than let it rot.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && d.kind == dirCancelPoint && !consumed[d.pos] {
					pass.Reportf(d.pos, "//torhs:cancelpoint must document a function declaration")
				}
			}
		}
	}
	return nil
}

// isContextType reports whether t is (an alias of) context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// exprIsContext resolves an AST type expression through the type info.
func exprIsContext(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	return ok && isContextType(tv.Type)
}

// checkCtxParamOrder reports context.Context parameters that are not the
// first parameter of their signature.
func checkCtxParamOrder(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		// An anonymous parameter group still occupies one position.
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if exprIsContext(pass, field.Type) && pos != 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		pos += n
	}
}

// checkCtxFields reports struct fields of type context.Context.
func checkCtxFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if exprIsContext(pass, field.Type) {
			pass.Reportf(field.Pos(), "context.Context must not be stored in a struct field; "+
				"pass it as the first parameter of each call instead")
		}
	}
}

// checkCancelPoint enforces the //torhs:cancelpoint contract on one
// annotated function: a context parameter exists, the body has at least
// one loop, and at least one outermost loop checks ctx.Err()/ctx.Done()
// somewhere inside.
func checkCancelPoint(pass *Pass, fd *ast.FuncDecl) {
	ctxObj := contextParam(pass, fd)
	if ctxObj == nil {
		pass.Reportf(fd.Pos(), "//torhs:cancelpoint function has no context.Context parameter to check")
		return
	}
	if fd.Body == nil {
		pass.Reportf(fd.Pos(), "//torhs:cancelpoint must document a function with a body")
		return
	}
	loops := outermostLoops(fd.Body)
	if len(loops) == 0 {
		pass.Reportf(fd.Pos(), "//torhs:cancelpoint function has no loop to anchor the cancellation check")
		return
	}
	for _, loop := range loops {
		if loopChecksContext(pass, loop, ctxObj) {
			return
		}
	}
	pass.Reportf(fd.Pos(), "//torhs:cancelpoint function never checks %s.Err() or %s.Done() "+
		"inside an outermost loop; a cancelled run would run the kernel to completion",
		ctxObj.Name(), ctxObj.Name())
}

// contextParam returns the function's context.Context parameter object.
func contextParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if !exprIsContext(pass, field.Type) {
			continue
		}
		for _, id := range field.Names {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// outermostLoops collects the loop statements of body that are not
// nested inside another loop of the same function (loops inside nested
// function literals do not count as the kernel's own loops).
func outermostLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			return false // outermost only
		case *ast.FuncLit:
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
	return loops
}

// loopChecksContext reports whether the loop body contains a ctx.Err or
// ctx.Done selector on the given context object (either form stops the
// kernel; Done usually appears inside a select). A check inside a nested
// function literal does not count: the loop only stops if its own body
// consults the context.
func loopChecksContext(pass *Pass, loop ast.Stmt, ctxObj types.Object) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxObj {
			found = true
			return false
		}
		return true
	})
	return found
}
