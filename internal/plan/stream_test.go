package plan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hummer/internal/core"
	"hummer/internal/datagen"
	"hummer/internal/metadata"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/testutil"
)

// drainRows materializes a stream into a relation, failing on any
// stream error.
func drainRows(t *testing.T, rows *Rows, name string) *relation.Relation {
	t.Helper()
	defer rows.Close()
	sch, err := rows.Schema()
	if err != nil {
		t.Fatalf("stream schema: %v", err)
	}
	out := relation.New(name, sch)
	for rows.Next() {
		if err := out.Append(rows.Row().Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return out
}

// TestStreamMatchesQuery: a drained stream is byte-identical to the
// materialized result of the same statement — plain SQL (including
// post-processing clauses) and fusion alike, cold and warm.
func TestStreamMatchesQuery(t *testing.T) {
	queries := []string{
		`SELECT Name, Age FROM EE_Student ORDER BY Age DESC LIMIT 3`,
		`SELECT cust, SUM(qty) AS total FROM orders GROUP BY cust ORDER BY cust`,
		`SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name) ORDER BY Name`,
	}
	for _, withCache := range []bool{false, true} {
		e := testExecutor(t)
		if withCache {
			e.Cache = qcache.New(16)
		}
		for _, q := range queries {
			want, err := e.QueryContext(t.Context(), q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for round := 0; round < 2; round++ { // cold-ish and warm
				rows, err := e.StreamContext(context.Background(), q, ExecOptions{})
				if err != nil {
					t.Fatalf("%s: stream: %v", q, err)
				}
				got := drainRows(t, rows, want.Rel.Name())
				if got.String() != want.Rel.String() {
					t.Errorf("cache=%v round %d %s:\nstream:\n%s\nquery:\n%s",
						withCache, round, q, got, want.Rel)
				}
				if (rows.Summary() != nil) != (want.Summary != nil) {
					t.Errorf("%s: stream summary presence %v, query %v",
						q, rows.Summary() != nil, want.Summary != nil)
				}
			}
		}
	}
}

// TestStreamLineage: fusion streams attach per-row lineage unless the
// query opted out.
func TestStreamLineage(t *testing.T) {
	e := testExecutor(t)
	q := `SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name) ORDER BY Name`
	rows, err := e.StreamContext(context.Background(), q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	sawLineage := false
	for rows.Next() {
		if lin := rows.RowLineage(); lin != nil {
			sawLineage = true
			if len(lin) != len(rows.Row()) {
				t.Fatalf("lineage cells = %d for %d columns", len(lin), len(rows.Row()))
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawLineage {
		t.Error("no row carried lineage")
	}

	rows, err = e.StreamContext(context.Background(), q, ExecOptions{NoLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		if rows.RowLineage() != nil {
			t.Fatal("NoLineage stream still carries lineage")
		}
	}
}

// TestFusionStreamCrossesChunks: a fused result several fault strides
// long streams, at every position, the row and lineage of the
// materialized query, so each row's lineage follows the row offset.
func TestFusionStreamCrossesChunks(t *testing.T) {
	repo := metadata.NewRepository()
	ents := datagen.Persons.Generate(7, 200)
	for i, alias := range []string{"p1", "p2"} {
		obs := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
			Alias: alias, Coverage: 0.8, TypoRate: 0.1, Seed: int64(i + 1)})
		if err := repo.RegisterRelation(alias, obs.Rel); err != nil {
			t.Fatal(err)
		}
	}
	e := &Executor{Repo: repo}
	q := `SELECT Name, RESOLVE(Age, max), City FUSE FROM p1, p2 FUSE BY (Name) ORDER BY Name`
	want, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rel.Len() <= 2*streamFaultStride || len(want.Lineage) != want.Rel.Len() {
		t.Fatalf("fused rows = %d, lineage rows = %d; want > %d each",
			want.Rel.Len(), len(want.Lineage), 2*streamFaultStride)
	}
	rows, err := e.StreamContext(t.Context(), q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	i := 0
	for ; rows.Next(); i++ {
		if i >= want.Rel.Len() {
			t.Fatalf("stream yields more than %d rows", want.Rel.Len())
		}
		if !rows.Row().Equal(want.Rel.Row(i)) {
			t.Fatalf("row %d: stream %v, query %v", i, rows.Row(), want.Rel.Row(i))
		}
		if !reflect.DeepEqual(rows.RowLineage(), want.Lineage[i]) {
			t.Fatalf("row %d: stream lineage %v, query %v", i, rows.RowLineage(), want.Lineage[i])
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != want.Rel.Len() {
		t.Errorf("stream rows = %d, query rows = %d", i, want.Rel.Len())
	}
}

// TestStreamScan: typed destinations, *any and skipped columns.
func TestStreamScan(t *testing.T) {
	e := testExecutor(t)
	rows, err := e.StreamContext(context.Background(),
		`SELECT Name, Age FROM EE_Student ORDER BY Age LIMIT 1`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var name string
	var age int64
	if err := rows.Scan(&name, &age); err != nil {
		t.Fatal(err)
	}
	if name == "" || age != 21 {
		t.Errorf("scanned (%q, %d), want the youngest student at 21", name, age)
	}
	var anyAge any
	if err := rows.Scan(nil, &anyAge); err != nil {
		t.Fatal(err)
	}
	if anyAge != int64(21) {
		t.Errorf("any destination = %v (%T)", anyAge, anyAge)
	}
	if err := rows.Scan(&name); err == nil {
		t.Error("arity mismatch must fail")
	}
	var wrong bool
	if err := rows.Scan(&name, &wrong); err == nil {
		t.Error("kind mismatch must fail")
	}
}

// TestStreamStatementError: a bad statement surfaces through Columns
// (and Err), not as a silent empty stream.
func TestStreamStatementError(t *testing.T) {
	e := testExecutor(t)
	rows, err := e.StreamContext(context.Background(), `SELECT Name FROM ghost`, ExecOptions{})
	if err != nil {
		t.Fatalf("execution errors must arrive via the stream, got sync %v", err)
	}
	defer rows.Close()
	if _, err := rows.Columns(); err == nil {
		t.Fatal("Columns on a failed statement must error")
	}
	if rows.Next() {
		t.Fatal("failed stream yielded a row")
	}
	if rows.Err() == nil {
		t.Fatal("Err is nil after a failed statement")
	}
	// Parse errors ARE synchronous.
	if _, err := e.StreamContext(context.Background(), `SELEKT`, ExecOptions{}); err == nil {
		t.Fatal("parse error must be synchronous")
	}
}

// TestStreamEarlyClose: closing a partially drained stream ends it,
// reports no error, and All() auto-closes.
func TestStreamEarlyClose(t *testing.T) {
	e := testExecutor(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		rows, err := e.StreamContext(context.Background(),
			`SELECT Name FROM EE_Student, CS_Students`, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if rows.Err() != nil {
			t.Fatalf("deliberate Close reported %v", rows.Err())
		}
		if rows.Next() {
			t.Fatal("Next after Close")
		}
	}
	// All(): breaking the loop closes the stream.
	rows, err := e.StreamContext(context.Background(), `SELECT Name FROM EE_Student`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range rows.All() {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	testutil.WaitForGoroutines(t, before+2)
}

// TestStreamAbandonedHoldsNoGoroutine: a stream abandoned without
// Close, mid-drain, holds no goroutine — execution runs on the
// consumer's goroutine and stops when it stops pulling.
func TestStreamAbandonedHoldsNoGoroutine(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	big := relation.NewBuilder("big", "N")
	for i := 0; i < 600; i++ {
		big.AddText(string(rune('a' + i%26)))
	}
	e := testExecutor(t)
	if err := e.Repo.RegisterRelation("big", big.Build()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rows, err := e.StreamContext(context.Background(), `SELECT N FROM big, big`, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
	}
}

// TestStreamCancelMidFlight: cancelling the stream's context ends it
// with ctx's error. The self-cross-joined relation yields far more
// rows than the one read before the cancel, so the cancellation
// verifiably lands mid-production.
func TestStreamCancelMidFlight(t *testing.T) {
	big := relation.NewBuilder("big", "N")
	for i := 0; i < 600; i++ {
		big.AddText(string(rune('a' + i%26)))
	}
	e := testExecutor(t)
	if err := e.Repo.RegisterRelation("big", big.Build()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := e.StreamContext(ctx, `SELECT N FROM big, big`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() { //nolint:revive // drain to the cancellation
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	rows.Close()
	testutil.WaitForGoroutines(t, before+2)
}

// TestStreamTimeout: ExecOptions.Timeout bounds the stream's whole
// lifetime.
func TestStreamTimeout(t *testing.T) {
	e := testExecutor(t)
	rows, err := e.StreamContext(context.Background(),
		`SELECT Name FROM EE_Student, CS_Students, orders, custs`,
		ExecOptions{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() { //nolint:revive // drain to the deadline
	}
	if !errors.Is(rows.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", rows.Err())
	}
}

// TestSlimFusedCacheEntry is the entry-shape regression test: the
// fused tier must retain only the slim head — final table, lineage,
// summary — never the pipeline intermediates (merged table, detection,
// per-source matches), which dominated entry weight before trace went
// opt-in.
func TestSlimFusedCacheEntry(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(8)
	q := `SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)`

	cold, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pipeline == nil {
		t.Fatal("cold miss must still expose the intermediates (legacy zero-option behaviour)")
	}
	if cold.Summary == nil || cold.Summary.Sources != 2 {
		t.Fatalf("cold summary = %+v", cold.Summary)
	}

	// Inspect the cached entry directly.
	key, _, err := e.fusedKey(q, []string{"EE_Student", "CS_Students"}, &core.Pipeline{Repo: e.Repo})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := e.Cache.Get(key)
	if !ok {
		t.Fatal("no fused entry after a cold miss")
	}
	entry := v.(*QueryResult)
	if entry.Pipeline != nil {
		t.Fatal("fused cache entry retains pipeline intermediates — not slim")
	}
	if entry.Summary == nil || entry.Rel == nil || entry.Lineage == nil {
		t.Fatalf("slim entry incomplete: %+v", entry)
	}

	// Warm hit serves the slim entry...
	warm, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pipeline != nil {
		t.Fatal("warm hit exposes intermediates without WithTrace")
	}
	if warm.Rel.String() != cold.Rel.String() {
		t.Fatal("warm result differs from cold")
	}
	if warm.Summary == nil || *warm.Summary != *cold.Summary {
		t.Fatalf("warm summary %+v differs from cold %+v", warm.Summary, cold.Summary)
	}

	// ...and a tracing query bypasses the tier entirely: guaranteed
	// intermediates, no fused traffic, no new fused entry.
	fusedBefore := e.Cache.Stats().Kinds[qcache.KindFused]
	entriesBefore := e.Cache.Stats().Entries
	traced, err := e.QueryWith(context.Background(), q, ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Pipeline == nil {
		t.Fatal("Trace query has no intermediates")
	}
	if traced.Rel.String() != cold.Rel.String() {
		t.Fatal("traced result differs")
	}
	st := e.Cache.Stats()
	if got := st.Kinds[qcache.KindFused]; got != fusedBefore {
		t.Errorf("trace query touched the fused tier: %+v -> %+v", fusedBefore, got)
	}
	if st.Entries != entriesBefore {
		t.Errorf("trace query changed entry count: %d -> %d", entriesBefore, st.Entries)
	}
	// It reused the per-phase artifacts instead.
	if got := st.Kinds[qcache.KindMatch]; got.Hits == 0 {
		t.Errorf("trace recompute did not reuse the match artifact: %+v", got)
	}
}
