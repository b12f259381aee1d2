package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFuseQueryOverCSV(t *testing.T) {
	dir := t.TempDir()
	ee := write(t, dir, "ee.csv", "Name,Age,City\nJonathan Smith,21,Berlin\nMaria Garcia,24,Hamburg\n")
	cs := write(t, dir, "cs.csv", "FullName,Years,Town\nJonathan Smith,22,Berlin\n")
	var out strings.Builder
	err := run([]string{
		"-csv", "ee=" + ee,
		"-csv", "cs=" + cs,
		"-query", "SELECT Name, RESOLVE(Age, max) FUSE FROM ee, cs FUSE BY (Name) ORDER BY Name",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Jonathan Smith") || !strings.Contains(got, "22") {
		t.Errorf("output missing fused row:\n%s", got)
	}
	if !strings.Contains(got, "[2 rows]") {
		t.Errorf("expected 2 fused rows:\n%s", got)
	}
}

// TestRunMatchFlags: the schema-matching knobs must reach the fusion
// pipeline — same fused result, whatever strategy and worker count.
func TestRunMatchFlags(t *testing.T) {
	dir := t.TempDir()
	ee := write(t, dir, "ee.csv", "Name,Age,City\nJonathan Smith,21,Berlin\nMaria Garcia,24,Hamburg\n")
	cs := write(t, dir, "cs.csv", "FullName,Years,Town\nJonathan Smith,22,Berlin\n")
	query := "SELECT Name, RESOLVE(Age, max) FUSE FROM ee, cs FUSE BY (Name) ORDER BY Name"
	var want string
	for i, extra := range [][]string{
		nil,
		{"-match-parallel", "2"},
		{"-match-window", "5"},
		{"-match-dups", "2"},
	} {
		args := append([]string{"-csv", "ee=" + ee, "-csv", "cs=" + cs, "-query", query}, extra...)
		var out strings.Builder
		if err := run(args, strings.NewReader(""), &out); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if i == 0 {
			want = out.String()
			if !strings.Contains(want, "Jonathan Smith") {
				t.Fatalf("baseline output missing fused row:\n%s", want)
			}
			continue
		}
		if out.String() != want {
			t.Errorf("%v changed the fused result:\nwant:\n%s\ngot:\n%s", extra, want, out.String())
		}
	}
}

func TestRunQueryFromStdin(t *testing.T) {
	dir := t.TempDir()
	f := write(t, dir, "t.csv", "a\n1\n2\n")
	var out strings.Builder
	err := run([]string{"-csv", "t=" + f},
		strings.NewReader("SELECT a FROM t ORDER BY a DESC"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[2 rows]") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunLineageAndTrace(t *testing.T) {
	dir := t.TempDir()
	a := write(t, dir, "a.csv", "Name,Price\nAbbey Road,18.99\n")
	b := write(t, dir, "b.json", `[{"Name": "Abbey Road", "Price": 12.49}]`)
	c := write(t, dir, "c.xml", "<cat><cd><Name>Abbey Road</Name><Price>15.75</Price></cd></cat>")
	var out strings.Builder
	err := run([]string{
		"-csv", "a=" + a,
		"-json", "b=" + b,
		"-xml", "c=" + c + ":cd",
		"-lineage", "-trace",
		"-query", "SELECT Name, RESOLVE(Price, min) FUSE FROM a, b, c FUSE BY (Name)",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"— sources —", "— merged", "duplicate detection", "— lineage —", "12.49"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-query", "SELECT"},           // syntax error
		{"-csv", "noequals"},           // bad spec
		{"-json", "x"},                 // bad spec
		{"-xml", "a=file-without-tag"}, // missing :tag
		{"-csv", "a=/no/such/file.csv", "-query", "SELECT x FROM a"}, // load error
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunNoQuery(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("   "), &out); err == nil {
		t.Error("empty query must error")
	}
}
