// Package lint is HumMer's contracts-as-code analyzer suite: a custom
// static-analysis pass, built only on the standard library (go/ast,
// go/parser, go/types, go/importer over `go list -json`), that turns
// the repo's load-bearing conventions into machine-checked rules.
//
// The contracts it enforces grew out of PRs 1–9 and live nowhere else
// but tests and reviewer memory:
//
//   - containment: every goroutine recovers panics into
//     *fault.InternalError (the process never dies for a query's sins);
//   - determinism: fusion output is byte-identical at every worker
//     count, so the deterministic packages must not leak map iteration
//     order into results nor consult wall clocks or unseeded RNGs;
//   - ctx-discipline: cancellation threads end to end — no
//     context.Background() smuggled into library code, and exported
//     ...Context functions really use their ctx;
//   - atomic-mix: shared counters and flags use the typed atomics
//     (atomic.Int64, …), never the function-style sync/atomic API, so
//     a plain access next to an atomic one cannot be written;
//   - error-wrapping: cross-package error returns wrap with %w (or a
//     typed error), never flatten with %v.
//
// A finding is suppressible only by an explicit, reasoned directive on
// the same or the preceding line:
//
//	//lint:ignore hummer/<rule> <reason>
//
// A directive without a reason (or naming an unknown rule) is itself a
// finding — the suite never goes quiet without an audit trail.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string // bare rule name, e.g. "containment"
	Msg  string
}

// String renders the CI-friendly single-line form:
// file:line: [hummer/rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [hummer/%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Config scopes the analyzers to the packages whose contracts they
// encode.
type Config struct {
	// DeterministicPkgs are the import paths under the byte-identity
	// contract: no map-order leaks, no wall clock, no unseeded RNG.
	DeterministicPkgs []string
	// ErrWrapPkgs are the import paths whose cross-package error
	// returns must wrap (%w or typed), never flatten (%v).
	ErrWrapPkgs []string
}

// DefaultConfig returns the repo's real contract scopes.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"hummer/internal/parshard",
			"hummer/internal/strsim",
			"hummer/internal/dumas",
			"hummer/internal/dupdetect",
			"hummer/internal/engine",
			"hummer/internal/plan",
			"hummer/internal/core",
			"hummer/internal/fusion",
		},
		ErrWrapPkgs: []string{
			"hummer/internal/server",
			"hummer/internal/plan",
			"hummer/internal/core",
		},
	}
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string // bare name; directives refer to it as hummer/<Name>
	Doc  string // one-line contract statement
	run  func(p *prog) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "containment",
			Doc:  "every go statement outside main/tests starts with a containment defer (fault.Capture or a recover routed into fault.NewInternal) so a panicking goroutine becomes a typed error, never a dead process",
			run:  runContainment,
		},
		{
			Name: "determinism",
			Doc:  "deterministic packages never leak map iteration order into results (sort the keys, or sort the output) and never call time.Now/time.Since or math/rand outside seeded constructors",
			run:  runDeterminism,
		},
		{
			Name: "ctx",
			Doc:  "no context.Background()/TODO() outside main, tests and documented shims (the doc comment must say \"background context\"), and exported ...Context functions must actually use their ctx",
			run:  runCtx,
		},
		{
			Name: "atomicmix",
			Doc:  "no function-style sync/atomic calls (atomic.AddInt64(&x, 1), …): a typed atomic (atomic.Int64, …) makes a plain access next to an atomic one impossible",
			run:  runAtomicMix,
		},
		{
			Name: "errwrap",
			Doc:  "error operands in fmt.Errorf use %w (or a typed error), never %v/%s/%q — flattening severs errors.Is/As chains across package boundaries",
			run:  runErrWrap,
		},
	}
}

// prog is the unit the analyzers run over: every loaded package plus
// the shared file set and configuration.
type prog struct {
	fset *token.FileSet
	pkgs []*Pkg
	cfg  Config
}

// Run executes the full analyzer suite over pkgs, applies suppression
// directives, and returns the surviving findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Pkg, cfg Config) []Finding {
	return RunAnalyzers(fset, pkgs, cfg, Analyzers())
}

// RunAnalyzers is Run restricted to a subset of the suite (the
// per-rule fixture tests use it). Suppression directives still apply.
func RunAnalyzers(fset *token.FileSet, pkgs []*Pkg, cfg Config, as []*Analyzer) []Finding {
	p := &prog{fset: fset, pkgs: pkgs, cfg: cfg}
	var all []Finding
	for _, a := range as {
		all = append(all, a.run(p)...)
	}
	all = applyDirectives(fset, pkgs, all)
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	// Dedupe: two passes over the same file must not double-report.
	out := all[:0]
	for i, f := range all {
		if i > 0 && f == all[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// --- shared resolution helpers ---

// calleeFunc resolves a call expression's callee to its types.Func,
// or nil when the callee is not a named function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isFunc reports whether call invokes the package-level function
// pkgPath.name.
func isFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isBuiltin reports whether call invokes the named builtin (recover,
// append, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// exprObj resolves a bare identifier or selector to its object.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// exprUsesObj reports whether any identifier inside e resolves to obj.
func exprUsesObj(info *types.Info, e ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// enclosingDecl returns the top-level function declaration containing
// pos in file, or nil.
func enclosingDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

func inList(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func (p *prog) finding(pos token.Pos, rule, format string, args ...any) Finding {
	return Finding{Pos: p.fset.Position(pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// RelPaths rewrites finding filenames relative to dir when possible —
// CI logs and editors both prefer repo-relative paths.
func RelPaths(findings []Finding, dir string) {
	for i := range findings {
		if rel, err := filepath.Rel(dir, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
		}
	}
}
