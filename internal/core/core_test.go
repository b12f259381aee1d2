package core

import (
	"testing"

	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/fusion"
	"hummer/internal/metadata"
	"hummer/internal/relation"
	"hummer/internal/value"
)

// repoWithStudents registers the paper's running example: EE and CS
// student tables with heterogeneous schemas, shared entities and
// conflicting ages.
func repoWithStudents(t *testing.T) *metadata.Repository {
	t.Helper()
	repo := metadata.NewRepository()
	ee := relation.NewBuilder("EE_Student", "Name", "Age", "City").
		AddText("Jonathan Smith", "21", "Berlin").
		AddText("Maria Garcia", "24", "Hamburg").
		AddText("Wei Chen", "21", "Munich").
		AddText("Aisha Khan", "23", "Cologne").
		Build()
	cs := relation.NewBuilder("CS_Students", "FullName", "Semester", "Years", "Town").
		AddText("Jonathan Smith", "4", "22", "Berlin").
		AddText("Wei Chen", "2", "21", "Munich").
		AddText("Lena Fischer", "1", "20", "Stuttgart").
		Build()
	if err := repo.RegisterRelation("EE_Student", ee); err != nil {
		t.Fatal(err)
	}
	if err := repo.RegisterRelation("CS_Students", cs); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestFig2PipelineDataflow(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{
		FuseBy: []string{"Name"},
		Rules:  map[string]fusion.Spec{"Age": {Name: "max"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase outputs all present.
	if len(res.Sources) != 2 || len(res.Matches) != 1 {
		t.Fatalf("sources/matches = %d/%d", len(res.Sources), len(res.Matches))
	}
	// Transformation: merged table uses the preferred (first) schema's
	// names and has sourceID.
	if !res.Merged.Schema().Has("Name") || !res.Merged.Schema().Has("Age") {
		t.Errorf("merged schema = %v, want preferred names", res.Merged.Schema().Names())
	}
	if res.Merged.Schema().Has("FullName") || res.Merged.Schema().Has("Years") {
		t.Errorf("non-preferred names survived: %v", res.Merged.Schema().Names())
	}
	if !res.Merged.Schema().Has(SourceIDColumn) {
		t.Error("sourceID column missing")
	}
	if res.Merged.Len() != 7 {
		t.Errorf("merged rows = %d, want 7", res.Merged.Len())
	}
	// Duplicate detection ran and found the two shared students.
	if res.Detection == nil || res.WithObjectID == nil {
		t.Fatal("detection phase skipped")
	}
	// Fusion: 5 distinct students.
	if res.Fused.Rel.Len() != 5 {
		t.Fatalf("fused rows = %d, want 5:\n%s", res.Fused.Rel.Len(), res.Fused.Rel)
	}
	// Jonathan Smith: conflicting ages 21 vs 22 resolve to max = 22.
	found := false
	for i := 0; i < res.Fused.Rel.Len(); i++ {
		if res.Fused.Rel.Value(i, "Name").Text() == "Jonathan Smith" {
			found = true
			if got := res.Fused.Rel.Value(i, "Age"); !got.Equal(value.NewInt(22)) {
				t.Errorf("Jonathan's age = %v, want 22 (max)", got)
			}
			if got := res.Fused.Rel.Value(i, "Semester"); !got.Equal(value.NewInt(4)) {
				t.Errorf("Jonathan's semester = %v, want 4 (coalesce)", got)
			}
		}
	}
	if !found {
		t.Error("Jonathan Smith missing from fused result")
	}
}

func TestSingleSourceCleansing(t *testing.T) {
	// The "online data cleansing service" scenario: one dirty table.
	repo := metadata.NewRepository()
	dirty := relation.NewBuilder("upload", "Name", "Phone").
		AddText("Anna Schmidt", "030-1234").
		AddText("Anna Schmidt", "").
		AddText("Bernd Maier", "089-5678").
		Build()
	if err := repo.RegisterRelation("upload", dirty); err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Repo: repo}
	res, err := p.RunContext(t.Context(), []string{"upload"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("single source must skip matching")
	}
	if res.Fused.Rel.Len() != 2 {
		t.Fatalf("cleansed rows = %d, want 2:\n%s", res.Fused.Rel.Len(), res.Fused.Rel)
	}
	// The phone survives the fusion via coalesce.
	for i := 0; i < res.Fused.Rel.Len(); i++ {
		if res.Fused.Rel.Value(i, "Name").Text() == "Anna Schmidt" {
			if got := res.Fused.Rel.Value(i, "Phone").Text(); got != "030-1234" {
				t.Errorf("phone = %q", got)
			}
		}
	}
}

func TestExactGroupingSkipsDetection(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{
		FuseBy:        []string{"Name"},
		ExactGrouping: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection != nil || res.WithObjectID != nil {
		t.Error("exact grouping must skip duplicate detection")
	}
	if res.Fused.Rel.Len() != 5 {
		t.Errorf("fused rows = %d, want 5", res.Fused.Rel.Len())
	}
}

func TestExactGroupingRequiresFuseBy(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	if _, err := p.RunContext(t.Context(), []string{"EE_Student"}, Options{ExactGrouping: true}); err == nil {
		t.Error("ExactGrouping without FuseBy must error")
	}
}

func TestRunErrors(t *testing.T) {
	p := &Pipeline{Repo: metadata.NewRepository()}
	if _, err := p.RunContext(t.Context(), nil, Options{}); err == nil {
		t.Error("no sources must error")
	}
	if _, err := p.RunContext(t.Context(), []string{"ghost"}, Options{}); err == nil {
		t.Error("unknown alias must error")
	}
	noRepo := &Pipeline{}
	if _, err := noRepo.RunContext(t.Context(), []string{"x"}, Options{}); err == nil {
		t.Error("missing repository must error")
	}
}

func TestOnCorrespondencesHook(t *testing.T) {
	// The hook drops every proposed correspondence — no renaming
	// happens, so the merged schema keeps both column sets.
	p := &Pipeline{Repo: repoWithStudents(t)}
	var sawAlias string
	p.OnCorrespondences = func(alias string, proposed []dumas.Correspondence) []dumas.Correspondence {
		sawAlias = alias
		return nil
	}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{FuseBy: []string{"Name"}})
	if err != nil {
		t.Fatal(err)
	}
	if sawAlias != "CS_Students" {
		t.Errorf("hook saw alias %q", sawAlias)
	}
	if !res.Merged.Schema().Has("FullName") {
		t.Error("dropping correspondences must keep the unaligned column")
	}
}

func TestOnAttributesHook(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	var proposed []string
	p.OnAttributes = func(attrs []string) []string {
		proposed = attrs
		return []string{"Name"}
	}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(proposed) == 0 {
		t.Error("hook must see the heuristic proposal")
	}
	if len(res.Detection.SelectedAttributes) != 1 || res.Detection.SelectedAttributes[0] != "Name" {
		t.Errorf("selected = %v, want [Name]", res.Detection.SelectedAttributes)
	}
}

func TestOnDuplicatesHookOverridesClustering(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	p.OnDuplicates = func(det *dupdetect.Result, merged *relation.Relation) []int {
		// Force every row to be its own object (reject all duplicates).
		ids := make([]int, merged.Len())
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fused.Rel.Len() != res.Merged.Len() {
		t.Errorf("rejecting all duplicates must keep all %d rows, got %d",
			res.Merged.Len(), res.Fused.Rel.Len())
	}
}

func TestOnDuplicatesHookBadLength(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	p.OnDuplicates = func(det *dupdetect.Result, merged *relation.Relation) []int {
		return []int{0}
	}
	if _, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{}); err == nil {
		t.Error("wrong-length override must error")
	}
}

func TestFuseByAttributesIncludedInDetection(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{FuseBy: []string{"Name"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Detection.SelectedAttributes {
		if a == "Name" {
			found = true
		}
	}
	if !found {
		t.Errorf("FUSE BY attr missing from detection attrs: %v", res.Detection.SelectedAttributes)
	}
}

func TestLineagePropagatesThroughPipeline(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{
		FuseBy: []string{"Name"},
		Rules:  map[string]fusion.Spec{"Age": {Name: "max"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find Jonathan's fused row; his name lineage must span both sources.
	nameCol := res.Fused.Rel.Schema().MustLookup("Name")
	for i := 0; i < res.Fused.Rel.Len(); i++ {
		if res.Fused.Rel.Value(i, "Name").Text() == "Jonathan Smith" {
			lin := res.Fused.Lineage[i][nameCol]
			if !lin.IsMixed() {
				t.Errorf("Jonathan's name lineage = %v, want both sources", lin.Sources())
			}
		}
	}
}

func TestSourceIDValuesAreAliases(t *testing.T) {
	p := &Pipeline{Repo: repoWithStudents(t)}
	res, err := p.RunContext(t.Context(), []string{"EE_Student", "CS_Students"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < res.Merged.Len(); i++ {
		seen[res.Merged.Value(i, SourceIDColumn).Text()] = true
	}
	if !seen["EE_Student"] || !seen["CS_Students"] {
		t.Errorf("sourceID values = %v", seen)
	}
}
