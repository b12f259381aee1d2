package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// moduleLoader is shared across tests: the expensive part of loading
// is `go list -deps -export`, and one loader reuses its export map.
var moduleLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	return NewLoader(root), nil
})

// runFixture loads one testdata package, runs the full suite with cfg,
// and checks the findings against the fixture's // want comments:
// every finding must match a want on its line, every want must be
// matched. Directive findings (rule "directive") are returned for the
// caller to assert explicitly — a want comment cannot share a line
// with the directive it describes without becoming its reason.
func runFixture(t *testing.T, pattern string, cfg Config) []Finding {
	t.Helper()
	loader, err := moduleLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load(pattern)
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	findings := Run(loader.Fset(), pkgs, cfg)

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{} // "file:line" -> wants
	wantRE := regexp.MustCompile("// want (.+)$")
	segRE := regexp.MustCompile("`([^`]+)`")
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := loader.Fset().Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, seg := range segRE.FindAllStringSubmatch(m[1], -1) {
						re, err := regexp.Compile(seg[1])
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, seg[1], err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}

	var directives []Finding
	for _, f := range findings {
		if f.Rule == "directive" {
			directives = append(directives, f)
			continue
		}
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.String()) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: want %q, no finding matched", key, w.re)
			}
		}
	}
	return directives
}

func TestContainmentFixture(t *testing.T) {
	directives := runFixture(t, "./internal/lint/testdata/src/containment", DefaultConfig())
	if len(directives) != 0 {
		t.Errorf("unexpected directive findings: %v", directives)
	}
}

func TestDeterminismFixture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeterministicPkgs = []string{"hummer/internal/lint/testdata/src/determinism"}
	runFixture(t, "./internal/lint/testdata/src/determinism", cfg)
}

func TestCtxFixture(t *testing.T) {
	runFixture(t, "./internal/lint/testdata/src/ctx", DefaultConfig())
}

func TestAtomicMixFixture(t *testing.T) {
	runFixture(t, "./internal/lint/testdata/src/atomicmix", DefaultConfig())
}

func TestErrWrapFixture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ErrWrapPkgs = []string{"hummer/internal/lint/testdata/src/errwrap"}
	runFixture(t, "./internal/lint/testdata/src/errwrap", cfg)
}

// TestSuppressFixture proves the directive contract: a reasoned
// directive suppresses its rule on the next line; a directive missing
// its reason, naming an unknown rule, or omitting the hummer/ prefix
// both fails to suppress (the underlying findings are asserted by the
// fixture's want comments) and is reported itself.
func TestSuppressFixture(t *testing.T) {
	directives := runFixture(t, "./internal/lint/testdata/src/suppress", DefaultConfig())
	if len(directives) != 3 {
		t.Fatalf("got %d directive findings, want 3: %v", len(directives), directives)
	}
	wantMsgs := []string{
		"missing its required reason",
		"unknown rule",
		"must be qualified as hummer/<rule>",
	}
	for _, msg := range wantMsgs {
		found := false
		for _, d := range directives {
			if strings.Contains(d.Msg, msg) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive finding contains %q in %v", msg, directives)
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verbArg
	}{
		{"plain", nil},
		{"%v", []verbArg{{'v', 0}}},
		{"%d then %w", []verbArg{{'d', 0}, {'w', 1}}},
		{"100%% %s", []verbArg{{'s', 0}}},
		{"%*d %v", []verbArg{{'d', 1}, {'v', 2}}},
		{"%.2f %q", []verbArg{{'f', 0}, {'q', 1}}},
		{"%[2]d %[1]v", []verbArg{{'d', 1}, {'v', 0}}},
		{"%+v", []verbArg{{'v', 0}}},
	}
	for _, c := range cases {
		got := formatVerbs(c.format)
		if len(got) != len(c.want) {
			t.Errorf("formatVerbs(%q) = %v, want %v", c.format, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("formatVerbs(%q)[%d] = %v, want %v", c.format, i, got[i], c.want[i])
			}
		}
	}
}
