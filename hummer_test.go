package hummer

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func studentDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := New(opts...)
	ee := NewTable("EE_Student", "Name", "Age", "City").
		AddText("Jonathan Smith", "21", "Berlin").
		AddText("Maria Garcia", "24", "Hamburg").
		AddText("Wei Chen", "21", "Munich").
		AddText("Aisha Khan", "23", "Cologne").
		Build()
	cs := NewTable("CS_Students", "FullName", "Semester", "Years", "Town").
		AddText("Jonathan Smith", "4", "22", "Berlin").
		AddText("Wei Chen", "2", "21", "Munich").
		AddText("Lena Fischer", "1", "20", "Stuttgart").
		Build()
	if err := db.RegisterTable("EE_Student", ee); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("CS_Students", cs); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIPaperQuery(t *testing.T) {
	db := studentDB(t)
	res, err := db.Query(`
		SELECT Name, RESOLVE(Age, max)
		FUSE FROM EE_Student, CS_Students
		FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 5 {
		t.Fatalf("rows = %d, want 5:\n%s", res.Rel.Len(), res.Rel)
	}
}

func TestSourcesAndTable(t *testing.T) {
	db := studentDB(t)
	srcs := db.Sources()
	if len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
	rel, err := db.Table("EE_Student")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Errorf("rows = %d", rel.Len())
	}
}

func TestCustomResolutionFunction(t *testing.T) {
	db := studentDB(t)
	db.RegisterResolution("tagged", func(ctx *ResolutionContext, _ string) (Value, error) {
		vals, _ := ctx.NonNull()
		if len(vals) == 0 {
			return Null, nil
		}
		return NewString("tag:" + vals[0].Text()), nil
	})
	res, err := db.Query(`SELECT Name, RESOLVE(City, tagged)
		FUSE FROM EE_Student, CS_Students FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < res.Rel.Len(); i++ {
		if v := res.Rel.Value(i, "City"); !v.IsNull() && len(v.Text()) > 4 && v.Text()[:4] == "tag:" {
			found = true
		}
	}
	if !found {
		t.Errorf("custom function not applied:\n%s", res.Rel)
	}
	names := db.ResolutionFunctions()
	has := false
	for _, n := range names {
		if n == "tagged" {
			has = true
		}
	}
	if !has {
		t.Errorf("registered function missing from %v", names)
	}
}

func TestProgrammaticFuse(t *testing.T) {
	db := studentDB(t)
	res, err := db.Fuse([]string{"EE_Student", "CS_Students"}, PipelineOptions{
		FuseBy: []string{"Name"},
		Rules:  map[string]ResolutionSpec{"Age": {Name: "max"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fused.Rel.Len() != 5 {
		t.Errorf("fused rows = %d", res.Fused.Rel.Len())
	}
	if res.Merged == nil || res.Detection == nil {
		t.Error("pipeline intermediates missing")
	}
}

func TestWizardHooksExposed(t *testing.T) {
	db := studentDB(t)
	matchSeen := false
	db.OnCorrespondences(func(alias string, proposed []Correspondence) []Correspondence {
		matchSeen = true
		return proposed
	})
	attrsSeen := false
	db.OnAttributes(func(proposed []string) []string {
		attrsSeen = true
		return proposed
	})
	dupsSeen := false
	db.OnDuplicates(func(det *Detection, merged *Relation) []int {
		dupsSeen = true
		return nil
	})
	if _, err := db.Fuse([]string{"EE_Student", "CS_Students"}, PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if !matchSeen || !attrsSeen || !dupsSeen {
		t.Errorf("hooks fired: match=%v attrs=%v dups=%v", matchSeen, attrsSeen, dupsSeen)
	}
	// Reset to automatic.
	db.OnDuplicates(nil)
	if _, err := db.Fuse([]string{"EE_Student"}, PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestFileRegistration(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "a.csv")
	os.WriteFile(csvPath, []byte("Name,Price\nAbbey Road,12.99\n"), 0o644)
	jsonPath := filepath.Join(dir, "b.json")
	os.WriteFile(jsonPath, []byte(`[{"Name": "Abbey Road", "Price": 11.49}]`), 0o644)
	xmlPath := filepath.Join(dir, "c.xml")
	os.WriteFile(xmlPath, []byte(`<cat><cd><Name>Abbey Road</Name><Price>13.49</Price></cd></cat>`), 0o644)

	db := New()
	if err := db.RegisterCSV("shopA", csvPath); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterJSON("shopB", jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterXML("shopC", xmlPath, "cd"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT Name, RESOLVE(Price, min)
		FUSE FROM shopA, shopB, shopC FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("rows = %d, want 1 fused CD:\n%s", res.Rel.Len(), res.Rel)
	}
	if got := res.Rel.Value(0, "Price"); got.Float() != 11.49 {
		t.Errorf("min price = %v", got)
	}
}

func TestLineageExposed(t *testing.T) {
	db := studentDB(t)
	res, err := db.Query(`SELECT Name, RESOLVE(Age, max)
		FUSE FROM EE_Student, CS_Students FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lineage) != res.Rel.Len() {
		t.Fatalf("lineage rows = %d", len(res.Lineage))
	}
	// Every non-null cell must have lineage.
	for i := 0; i < res.Rel.Len(); i++ {
		for j := 0; j < res.Rel.Schema().Len(); j++ {
			if !res.Rel.Row(i)[j].IsNull() && res.Lineage[i][j].IsEmpty() {
				t.Errorf("cell (%d,%d) lacks lineage", i, j)
			}
		}
	}
}

func ExampleDB_Query() {
	db := New()
	ee := NewTable("EE_Student", "Name", "Age").
		AddText("Jonathan Smith", "21").
		AddText("Maria Garcia", "24").
		Build()
	cs := NewTable("CS_Students", "FullName", "Years").
		AddText("Jonathan Smith", "22").
		Build()
	db.RegisterTable("EE_Student", ee)
	db.RegisterTable("CS_Students", cs)

	res, _ := db.Query(`
		SELECT Name, RESOLVE(Age, max)
		FUSE FROM EE_Student, CS_Students
		FUSE BY (Name)
		ORDER BY Name`)
	for i := 0; i < res.Rel.Len(); i++ {
		fmt.Printf("%s %s\n", res.Rel.Value(i, "Name"), res.Rel.Value(i, "Age"))
	}
	// Output:
	// Jonathan Smith 22
	// Maria Garcia 24
}

// TestWithMatchConfigAppliesToOneQuery: a per-query DUMAS configuration
// changes that query's schema matching only; the next query without
// the option matches with the DB-wide default again.
func TestWithMatchConfigAppliesToOneQuery(t *testing.T) {
	db := studentDB(t)
	const q = `SELECT * FUSE FROM EE_Student, CS_Students FUSE BY (Name)`
	cols := func(opts ...QueryOption) []string {
		t.Helper()
		res, err := db.Query(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rel.Schema().Names()
	}
	before := cols()
	// A threshold above every similarity keeps each CS column apart.
	strict := cols(WithMatchConfig(MatchConfig{Threshold: 2}))
	after := cols()
	if !slices.Equal(before, after) {
		t.Fatalf("columns after the per-query config = %v, want the default %v", after, before)
	}
	if !slices.Contains(strict, "FullName") || slices.Contains(before, "FullName") {
		t.Fatalf("FullName matched under Threshold 2 (%v) or unmatched by default (%v)", strict, before)
	}
}

func TestFuseContextPreCancelled(t *testing.T) {
	db := studentDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.FuseContext(ctx, []string{"EE_Student", "CS_Students"}, PipelineOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled FuseContext returned %v, want context.Canceled", err)
	}
}

// TestInvalidateSourceRereadsCSV: invalidating a file-backed alias
// bumps its generation and the next query reads the file anew.
func TestInvalidateSourceRereadsCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	count := func(db *DB) int64 {
		t.Helper()
		res, err := db.Query(`SELECT count(*) FROM p`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rel.Row(0)[0].Int()
	}
	write("Name,Age\nAda,36\n")
	db := New()
	if err := db.RegisterCSV("p", path); err != nil {
		t.Fatal(err)
	}
	if n := count(db); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
	gen := db.SourceGeneration("p")
	write("Name,Age\nAda,36\nAlan,41\n")
	db.InvalidateSource("p")
	if g := db.SourceGeneration("p"); g <= gen {
		t.Fatalf("generation %d after InvalidateSource, want above %d", g, gen)
	}
	if n := count(db); n != 2 {
		t.Fatalf("rows after InvalidateSource = %d, want 2 (the file's new contents)", n)
	}
}
