package dumas

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hummer/internal/datagen"
)

// Run `go test ./internal/dumas -run TestGolden -update` after an
// intentional matching change to regenerate the golden file; the diff
// then documents exactly how the correspondences moved.
var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCase is the serialized end-to-end output for one configuration:
// correspondences and discovered duplicates, scores rounded so the
// file survives harmless float drift while still catching real
// matching regressions.
type goldenCase struct {
	Label           string   `json:"label"`
	Correspondences []string `json:"correspondences"`
	Duplicates      []string `json:"duplicates"`
	CandidatePairs  int      `json:"candidate_pairs"`
}

func goldenSnapshot(t *testing.T, label string, res *Result) goldenCase {
	t.Helper()
	g := goldenCase{Label: label, CandidatePairs: res.Stats.CandidatePairs}
	for _, c := range res.Correspondences {
		g.Correspondences = append(g.Correspondences,
			fmt.Sprintf("%s=%s@%.4f", c.LeftCol, c.RightCol, c.Score))
	}
	for _, d := range res.Duplicates {
		g.Duplicates = append(g.Duplicates,
			fmt.Sprintf("L%d~R%d@%.4f", d.LeftRow, d.RightRow, d.Sim))
	}
	return g
}

// TestGoldenMatch pins the full DUMAS pipeline — datagen workload,
// duplicate discovery, field-matrix averaging, assignment, pruning —
// against checked-in expectations, so schema-matching regressions show
// up as a reviewable testdata diff instead of a silent quality drop.
func TestGoldenMatch(t *testing.T) {
	const seed = 2005
	ents := datagen.Persons.Generate(seed, 60)
	renames := map[string]string{
		"Name": "FullName", "Age": "Years", "City": "Town",
		"Email": "Mail", "Phone": "Telephone",
	}
	left := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
		Alias: "s1", Coverage: 0.8, TypoRate: 0.1, NullRate: 0.05, Seed: seed + 1,
	})
	right := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
		Alias: "s2", Renames: renames, Coverage: 0.8, TypoRate: 0.1, NullRate: 0.05, Seed: seed + 2,
	})

	var got []goldenCase
	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"default", Config{}},
		{"window8", Config{Window: 8}},
		{"k3", Config{MaxDuplicates: 3}},
	} {
		res, err := MatchContext(t.Context(), left.Rel, right.Rel, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		got = append(got, goldenSnapshot(t, tc.label, res))
	}

	path := filepath.Join("testdata", "match_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if !reflect.DeepEqual(want, got) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("end-to-end match output drifted from %s.\n"+
			"If the change is intentional, re-run with -update and review the diff.\ngot:\n%s",
			path, gotJSON)
	}
}
