package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// modulePkgs loads every package of the module once for the
// self-check tests, skipping the fixtures under testdata/, which are
// violations on purpose.
var modulePkgs = sync.OnceValues(func() ([]*Pkg, error) {
	loader, err := moduleLoader()
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(pkgs, func(p *Pkg) bool { return strings.Contains(p.ImportPath, "/testdata/") }), nil
})

// TestRepoLintsClean runs the full analyzer suite over the whole
// module — the same invocation `make lint` performs — and requires
// zero findings. It doubles as the smoke bound from the roadmap: the
// sweep must finish well inside 10s on a 1-CPU box so it can sit in
// `make check` without being the slow step.
func TestRepoLintsClean(t *testing.T) {
	loader, err := moduleLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	start := time.Now()
	targets, err := modulePkgs()
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	if len(targets) < 10 {
		t.Fatalf("only %d non-fixture packages loaded; pattern ./... is not covering the module", len(targets))
	}
	findings := Run(loader.Fset(), targets, DefaultConfig())
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("full-module lint took %v, want <10s", elapsed)
	}
}

// TestBackgroundContextSites pins every function outside package main,
// tests and testdata/ that mints context.Background() or
// context.TODO(). The ctx rule lets any function whose doc declares the
// background-context shim do so; this list makes each new shim a
// reviewed edit. The root package's context-less API is a deliberate
// convenience; inside the module only parshard.Run (whose signature
// the benchmark pins) and the test helper testutil.CancelAtPoll remain.
func TestBackgroundContextSites(t *testing.T) {
	pkgs, err := modulePkgs()
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	sites := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isFunc(pkg.Info, call, "context", "Background") && !isFunc(pkg.Info, call, "context", "TODO") {
					return true
				}
				site := pkg.ImportPath
				if fd := enclosingDecl(f, call.Pos()); fd != nil {
					if fd.Recv != nil {
						site += ".(" + types.ExprString(fd.Recv.List[0].Type) + ")"
					}
					site += "." + fd.Name.Name
				}
				sites[site] = true
				return true
			})
		}
	}
	got := slices.Sorted(maps.Keys(sites))
	want := []string{
		"hummer.(*DB).Fuse",
		"hummer.(*DB).Query",
		"hummer.DetectDuplicates",
		"hummer.MatchSchemas",
		"hummer/internal/parshard.Run",
		"hummer/internal/testutil.CancelAtPoll",
	}
	if !slices.Equal(got, want) {
		t.Errorf("background-context sites:\n got  %q\n want %q", got, want)
	}
}

// TestSuppressionSites pins every //lint:ignore directive in the
// module's non-test code outside testdata/, by file and rule, one entry
// per directive. Like the background-context list above, it makes each
// new suppression a reviewed edit.
func TestSuppressionSites(t *testing.T) {
	loader, err := moduleLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := modulePkgs()
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for file, byLine := range collectDirectives(loader.Fset(), pkgs) {
		rel, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range byLine {
			got = append(got, filepath.ToSlash(rel)+" hummer/"+d.rule)
		}
	}
	slices.Sort(got)
	want := []string{
		"internal/plan/stream.go hummer/determinism",
		"internal/plan/stream.go hummer/determinism",
		"internal/plan/stream.go hummer/determinism",
	}
	if !slices.Equal(got, want) {
		t.Errorf("lint suppressions:\n got  %q\n want %q", got, want)
	}
}
