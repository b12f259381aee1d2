package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runContainment enforces the panic-containment contract: every go
// statement outside package main (tests are never loaded) must begin
// with a containment defer so a panic in the goroutine becomes a typed
// *fault.InternalError instead of killing the process.
//
// A containment defer is either
//
//	defer fault.Capture(site, &err)
//
// or a deferred function literal whose body calls recover() — the
// latter covers the repo's hand-rolled boundaries that route the
// recovered value into fault.NewInternal and, at re-panic boundaries
// like the HTTP middleware, rethrow sentinels such as
// http.ErrAbortHandler. Those re-panicking recovers are containment by
// construction, so they pass structurally; no inline suppression is
// needed for them.
//
// The defer must appear in the goroutine body's leading run of defer
// statements: containment registered after real work has begun leaves
// a window where a panic escapes.
//
// `go name(...)` with a callee defined in the same package is checked
// against the callee's body. A callee that cannot be resolved — a function value, a
// cross-package call — is reported: the analyzer cannot prove the
// contract, so the goroutine must either wrap the call in a contained
// literal or carry a reasoned suppression.
func runContainment(p *prog) []Finding {
	var out []Finding
	for _, pkg := range p.pkgs {
		if pkg.Name == "main" {
			continue
		}
		decls := map[types.Object]*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						decls[obj] = fd
					}
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if msg := goStmtUncontained(pkg, gs, decls); msg != "" {
					out = append(out, p.finding(gs.Pos(), "containment", "%s", msg))
				}
				return true
			})
		}
	}
	return out
}

// goStmtUncontained returns a non-empty message when the go statement
// violates the contract.
func goStmtUncontained(pkg *Pkg, gs *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) string {
	const remedy = "start the goroutine body with defer fault.Capture(...) or a deferred recover routed into fault.NewInternal"
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if !bodyContained(pkg, lit.Body) {
			return "goroutine has no leading containment defer; " + remedy
		}
		return ""
	}
	fn := calleeFunc(pkg.Info, gs.Call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkg.ImportPath {
		if fd := decls[fn]; fd != nil && fd.Body != nil {
			if !bodyContained(pkg, fd.Body) {
				return "goroutine runs " + fn.Name() + ", which has no leading containment defer; " + remedy
			}
			return ""
		}
	}
	return "goroutine target cannot be verified for containment; wrap it in a contained function literal (" + remedy + ")"
}

// bodyContained scans the leading run of defer statements for a
// containment defer. Plain var declarations may precede the defers —
// `defer fault.Capture(site, &err)` needs its err declared first, and
// a zero-value declaration cannot panic — but any other statement ends
// the run: containment registered after real work has begun leaves a
// window where a panic escapes.
func bodyContained(pkg *Pkg, body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if decl, ok := st.(*ast.DeclStmt); ok {
			if gd, ok := decl.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR && varDeclZero(gd) {
				continue
			}
			return false
		}
		ds, ok := st.(*ast.DeferStmt)
		if !ok {
			return false
		}
		if deferIsContainment(pkg, ds) {
			return true
		}
	}
	return false
}

// varDeclZero reports whether every spec in the var declaration is a
// pure zero-value declaration (no initializer expressions, which could
// themselves panic before containment is registered).
func varDeclZero(gd *ast.GenDecl) bool {
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); !ok || len(vs.Values) != 0 {
			return false
		}
	}
	return true
}

func deferIsContainment(pkg *Pkg, ds *ast.DeferStmt) bool {
	if isFunc(pkg.Info, ds.Call, "hummer/internal/fault", "Capture") {
		return true
	}
	lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pkg.Info, call, "recover") {
			found = true
		}
		return !found
	})
	return found
}
