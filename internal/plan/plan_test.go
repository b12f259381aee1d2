package plan

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"hummer/internal/metadata"
	"hummer/internal/relation"
	"hummer/internal/value"
)

func testExecutor(t *testing.T) *Executor {
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
	orders := relation.NewBuilder("orders", "oid", "cust", "qty").
		AddText("1", "alice", "2").
		AddText("2", "bob", "1").
		AddText("3", "alice", "5").
		Build()
	custs := relation.NewBuilder("custs", "cname", "city").
		AddText("alice", "Berlin").
		AddText("bob", "Tokyo").
		Build()
	for alias, rel := range map[string]*relation.Relation{
		"EE_Student": ee, "CS_Students": cs, "orders": orders, "custs": custs,
	} {
		if err := repo.RegisterRelation(alias, rel); err != nil {
			t.Fatal(err)
		}
	}
	return &Executor{Repo: repo}
}

func TestPaperQueryEndToEnd(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), `
		SELECT Name, RESOLVE(Age, max)
		FUSE FROM EE_Student, CS_Students
		FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 5 {
		t.Fatalf("rows = %d, want 5 students:\n%s", res.Rel.Len(), res.Rel)
	}
	if got := res.Rel.Schema().Names(); len(got) != 2 || got[0] != "Name" || got[1] != "Age" {
		t.Fatalf("schema = %v", got)
	}
	for i := 0; i < res.Rel.Len(); i++ {
		if res.Rel.Value(i, "Name").Text() == "Jonathan Smith" {
			if got := res.Rel.Value(i, "Age"); !got.Equal(value.NewInt(22)) {
				t.Errorf("Jonathan's age = %v, want max(21,22)=22", got)
			}
		}
	}
	if res.Pipeline == nil || res.Lineage == nil {
		t.Error("fusion query must expose pipeline and lineage")
	}
}

func TestFuseStarSelectsAllSourceAttributes(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT * FUSE FROM EE_Student, CS_Students FUSE BY (Name)")
	if err != nil {
		t.Fatal(err)
	}
	s := res.Rel.Schema()
	for _, col := range []string{"Name", "Age", "City", "Semester"} {
		if !s.Has(col) {
			t.Errorf("star output lacks %q: %v", col, s.Names())
		}
	}
	if s.Has("sourceID") || s.Has("objectID") {
		t.Errorf("bookkeeping columns leaked into star output: %v", s.Names())
	}
}

func TestFuseWhereFiltersBeforeGrouping(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), `
		SELECT Name, RESOLVE(Age, max)
		FUSE FROM EE_Student, CS_Students
		WHERE Age >= 22
		FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	// Age>=22 drops Wei Chen (21/21) and Lena (20); Jonathan keeps only
	// his CS row (22), Maria (24) and Aisha (23) stay.
	if res.Rel.Len() != 3 {
		t.Fatalf("rows = %d, want 3:\n%s", res.Rel.Len(), res.Rel)
	}
}

func TestFuseHavingOrderLimit(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), `
		SELECT Name, RESOLVE(Age, max)
		FUSE FROM EE_Student, CS_Students
		FUSE BY (Name)
		HAVING Age > 20
		ORDER BY Age DESC, Name
		LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Rel.Len())
	}
	if got := res.Rel.Value(0, "Name").Text(); got != "Maria Garcia" {
		t.Errorf("first row = %q, want Maria Garcia (24)", got)
	}
	if len(res.Lineage) != res.Rel.Len() {
		t.Errorf("lineage rows = %d, want %d", len(res.Lineage), res.Rel.Len())
	}
}

// TestFuseTailKeepsLineage: HAVING, ORDER BY and LIMIT drop and
// reorder fused rows; each surviving row keeps the lineage its fused
// row had before the tail ran.
func TestFuseTailKeepsLineage(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryWith(t.Context(), `
		SELECT Name, RESOLVE(Age, max), City
		FUSE FROM EE_Student, CS_Students
		FUSE BY (Name)
		HAVING Age > 20
		ORDER BY Age DESC, Name
		LIMIT 2`, ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 || len(res.Lineage) != 2 {
		t.Fatalf("rows = %d, lineage rows = %d, want 2/2", res.Rel.Len(), len(res.Lineage))
	}
	fused := res.Pipeline.Fused
	moved := false
	for i, row := range res.Rel.Rows() {
		j := slices.IndexFunc(fused.Rel.Rows(), row.Equal)
		if j < 0 {
			t.Fatalf("row %d %v is not a fused row", i, row)
		}
		moved = moved || j != i
		if !reflect.DeepEqual(res.Lineage[i], fused.Lineage[j]) {
			t.Errorf("row %d (%v): lineage %v, want fused row %d's %v", i, row, res.Lineage[i], j, fused.Lineage[j])
		}
	}
	if !moved {
		t.Error("the tail kept every row in place; the check proves nothing")
	}
}

func TestFuseAliasRenamesOutput(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), `SELECT Name AS Student, RESOLVE(Age, max) AS MaxAge
		FUSE FROM EE_Student, CS_Students FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Schema().Has("Student") || !res.Rel.Schema().Has("MaxAge") {
		t.Errorf("schema = %v", res.Rel.Schema().Names())
	}
}

func TestResolveChooseSource(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), `SELECT Name, RESOLVE(Age, choose('CS_Students'))
		FUSE FROM EE_Student, CS_Students FUSE BY (Name)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Rel.Len(); i++ {
		switch res.Rel.Value(i, "Name").Text() {
		case "Jonathan Smith":
			if got := res.Rel.Value(i, "Age"); !got.Equal(value.NewInt(22)) {
				t.Errorf("choose(CS) Jonathan = %v, want 22", got)
			}
		case "Maria Garcia":
			// Only EE has Maria → choose(CS) yields NULL.
			if got := res.Rel.Value(i, "Age"); !got.IsNull() {
				t.Errorf("choose(CS) Maria = %v, want NULL", got)
			}
		}
	}
}

func TestPlainSelectWhereOrder(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT Name, Age FROM EE_Student WHERE Age > 21 ORDER BY Age DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Rel.Len())
	}
	if got := res.Rel.Value(0, "Name").Text(); got != "Maria Garcia" {
		t.Errorf("first = %q", got)
	}
	if res.Lineage != nil || res.Pipeline != nil {
		t.Error("plain SQL must not produce lineage/pipeline")
	}
}

func TestPlainGroupBy(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT cust, count(*) AS n, sum(qty) AS total FROM orders GROUP BY cust ORDER BY cust")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("groups = %d", res.Rel.Len())
	}
	if got := res.Rel.Value(0, "total"); !got.Equal(value.NewInt(7)) {
		t.Errorf("alice total = %v, want 7", got)
	}
}

func TestPlainJoin(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT oid, city FROM orders JOIN custs ON cust = cname ORDER BY oid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Rel.Len())
	}
	if got := res.Rel.Value(0, "city").Text(); got != "Berlin" {
		t.Errorf("city = %q", got)
	}
}

func TestPlainDistinctAndLimit(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT DISTINCT cust FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("distinct rows = %d", res.Rel.Len())
	}
	res, err = e.QueryContext(t.Context(), "SELECT oid FROM orders LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("limited rows = %d", res.Rel.Len())
	}
}

func TestPlainStar(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT * FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Schema().Len() != 3 || res.Rel.Len() != 3 {
		t.Errorf("star = %v × %d", res.Rel.Schema().Names(), res.Rel.Len())
	}
}

func TestErrorCases(t *testing.T) {
	e := testExecutor(t)
	cases := map[string]string{
		"unknown table":            "SELECT a FROM ghost",
		"resolve without fuse":     "SELECT RESOLVE(Age, max) FROM EE_Student",
		"agg inside fuse":          "SELECT count(*) FUSE FROM EE_Student FUSE BY (Name)",
		"non-grouped column":       "SELECT Name, count(*) FROM EE_Student GROUP BY City",
		"star with group by":       "SELECT * FROM EE_Student GROUP BY City",
		"join in fuse":             "SELECT Name FUSE FROM EE_Student JOIN custs ON a = b FUSE BY (Name)",
		"order by unknown col":     "SELECT Name FUSE FROM EE_Student FUSE BY (Name) ORDER BY ghost",
		"unknown fuse by col":      "SELECT Name FUSE FROM EE_Student FUSE BY (ghost)",
		"having on unknown column": "SELECT Name FUSE FROM EE_Student FUSE BY (Name) HAVING ghost > 1",
		"distinct in fuse":         "SELECT DISTINCT City FUSE FROM EE_Student, CS_Students FUSE BY (Name)",
	}
	for label, q := range cases {
		if _, err := e.QueryContext(t.Context(), q); err == nil {
			t.Errorf("%s: query %q succeeded, want error", label, q)
		}
	}
}

func TestSyntaxErrorSurfaces(t *testing.T) {
	e := testExecutor(t)
	_, err := e.QueryContext(t.Context(), "SELEC nonsense")
	if err == nil || !strings.Contains(err.Error(), "sql") {
		t.Errorf("err = %v", err)
	}
}

func TestCrossProductPlainFrom(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT oid, cname FROM orders, custs")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 6 {
		t.Errorf("cross rows = %d, want 6", res.Rel.Len())
	}
}

func TestFuseSingleSourceDeduplication(t *testing.T) {
	// FUSE FROM with one dirty source: the cleansing service usage.
	repo := metadata.NewRepository()
	dirty := relation.NewBuilder("upload", "Name", "Phone").
		AddText("Anna Schmidt", "030-1234").
		AddText("Anna Schmidt", "").
		AddText("Bernd Maier", "089-5678").
		Build()
	if err := repo.RegisterRelation("upload", dirty); err != nil {
		t.Fatal(err)
	}
	e := &Executor{Repo: repo}
	res, err := e.QueryContext(t.Context(), "SELECT * FUSE FROM upload FUSE BY (Name)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", res.Rel.Len(), res.Rel)
	}
}

func TestPlainComputedColumns(t *testing.T) {
	e := testExecutor(t)
	res, err := e.QueryContext(t.Context(), "SELECT oid, qty * 2 AS double_qty, qty + 1 FROM orders ORDER BY oid")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rel.Value(0, "double_qty"); !got.Equal(value.NewInt(4)) {
		t.Errorf("double_qty = %v, want 4", got)
	}
	if got := res.Rel.Value(0, "(qty + 1)"); !got.Equal(value.NewInt(3)) {
		t.Errorf("computed col = %v, want 3", got)
	}
}

func TestComputedColumnRejectedInFuse(t *testing.T) {
	e := testExecutor(t)
	if _, err := e.QueryContext(t.Context(), "SELECT Age + 1 FUSE FROM EE_Student FUSE BY (Name)"); err == nil {
		t.Error("computed expression in FUSE statement must error")
	}
	if _, err := e.QueryContext(t.Context(), "SELECT qty * 2 FROM orders GROUP BY cust"); err == nil {
		t.Error("computed expression with GROUP BY must error")
	}
}
