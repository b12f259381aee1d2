// Command hummer-lint runs HumMer's contracts-as-code analyzer suite
// (internal/lint) over the module: panic containment at every
// goroutine boundary, the determinism contract in the fusion packages,
// end-to-end ctx threading, typed atomics only, and error
// wrapping across package boundaries.
//
// Usage:
//
//	hummer-lint [-json] [-dir .] [packages...]
//	hummer-lint -rules
//
// Findings print one per line as file:line: [hummer/rule] message, or
// as a JSON array with -json. A finding is suppressed only by a
// reasoned directive on the same or preceding line:
//
//	//lint:ignore hummer/<rule> <reason>
//
// Exit codes are CI-friendly: 0 clean, 1 findings, 2 load or usage
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hummer/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hummer-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	rules := fs.Bool("rules", false, "list the rules with their contract docs and exit")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *rules {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "hummer/%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := lint.NewLoader(*dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "hummer-lint: %v\n", err)
		return 2
	}
	findings := lint.Run(loader.Fset(), pkgs, lint.DefaultConfig())
	if cwd, err := os.Getwd(); err == nil {
		lint.RelPaths(findings, cwd)
	}

	if *jsonOut {
		type jsonFinding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: "hummer/" + f.Rule, Message: f.Msg,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "hummer-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
