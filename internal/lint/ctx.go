package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runCtx enforces the ctx-threading discipline that makes every query
// cancellable end to end:
//
//   - context.Background() and context.TODO() are banned outside
//     package main, tests (never loaded) and documented shims. A
//     documented shim is a function whose doc comment contains the
//     phrase "background context" — the repo idiom: "It is
//     QueryContext with a background context: it cannot be
//     cancelled." The doc is the contract: a caller reading it knows
//     cancellation stops there. TestBackgroundContextSites pins the
//     set of shims, so a new one is a reviewed edit.
//   - an exported function or method whose name ends in Context and
//     whose first parameter is a context.Context must actually use
//     that parameter. Accepting a ctx and dropping it advertises
//     cancellability the implementation does not deliver.
func runCtx(p *prog) []Finding {
	var out []Finding
	for _, pkg := range p.pkgs {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			out = append(out, ctxBackground(p, pkg, f)...)
			out = append(out, ctxUnthreaded(p, pkg, f)...)
		}
	}
	return out
}

func ctxBackground(p *prog, pkg *Pkg, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch {
		case isFunc(pkg.Info, call, "context", "Background"):
			name = "context.Background"
		case isFunc(pkg.Info, call, "context", "TODO"):
			name = "context.TODO"
		default:
			return true
		}
		// Fold line wraps before matching: the shim phrase may break
		// across comment lines.
		if fd := enclosingDecl(f, call.Pos()); fd != nil && fd.Doc != nil {
			doc := strings.ToLower(strings.Join(strings.Fields(fd.Doc.Text()), " "))
			if strings.Contains(doc, "background context") {
				return true
			}
		}
		out = append(out, p.finding(call.Pos(), "ctx",
			"%s() in library code severs the cancellation chain; thread the caller's ctx, or document the shim (doc comment containing \"background context\")",
			name))
		return true
	})
	return out
}

func ctxUnthreaded(p *prog, pkg *Pkg, f *ast.File) []Finding {
	var out []Finding
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !fd.Name.IsExported() || !strings.HasSuffix(fd.Name.Name, "Context") {
			continue
		}
		params := fd.Type.Params
		if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
			continue
		}
		first := params.List[0].Names[0]
		if !isContextType(pkg.Info.TypeOf(params.List[0].Type)) {
			continue
		}
		if first.Name == "_" {
			out = append(out, p.finding(fd.Pos(), "ctx",
				"exported %s discards its ctx parameter; a ...Context function must thread it", fd.Name.Name))
			continue
		}
		obj := pkg.Info.Defs[first]
		if obj == nil {
			continue
		}
		if !exprUsesObj(pkg.Info, fd.Body, obj) {
			out = append(out, p.finding(fd.Pos(), "ctx",
				"exported %s never uses its ctx parameter; a ...Context function must thread it", fd.Name.Name))
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
