package hummer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/testutil"
)

const streamFuseQuery = `SELECT Name, RESOLVE(Age, max)
	FUSE FROM EE_Student, CS_Students
	FUSE BY (Name)
	ORDER BY Name`

// drainToRelation materializes a Rows cursor, failing the test on a
// stream error.
func drainToRelation(t *testing.T, rows *Rows, name string) *relation.Relation {
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

// TestQueryRowsMatchesQueryAnyWorkers is the streaming byte-identity
// acceptance test: at every worker count, a drained QueryRows yields
// exactly the table the materialized Query returns — fusion and plain
// SQL alike.
func TestQueryRowsMatchesQueryAnyWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := studentDB(t)
			db.SetDetectConfig(DetectionConfig{Parallelism: workers})
			db.SetMatchConfig(MatchConfig{Parallelism: workers})
			for _, q := range []string{
				streamFuseQuery,
				`SELECT Name, Age FROM EE_Student ORDER BY Name`,
			} {
				want, err := db.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := db.QueryRows(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				got := drainToRelation(t, rows, want.Rel.Name())
				if got.String() != want.Rel.String() {
					t.Errorf("stream differs from query for %q:\n%s\nvs\n%s", q, got, want.Rel)
				}
			}
		})
	}
}

// TestSlimFusedWarmHit pins the slim-entry semantics end to end: a
// cold zero-option query exposes the intermediates as it always has,
// the warm hit is slim (Pipeline nil, Summary and Lineage intact,
// table byte-identical), the cache gains exactly one fused entry, and
// WithTrace bypasses the tier — guaranteed intermediates, zero fused
// traffic, no new entries.
func TestSlimFusedWarmHit(t *testing.T) {
	db := studentDB(t)

	cold, err := db.Query(streamFuseQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pipeline == nil || cold.Summary == nil || cold.Lineage == nil {
		t.Fatalf("cold run must carry pipeline, summary and lineage")
	}

	warm, err := db.Query(streamFuseQuery)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pipeline != nil {
		t.Error("warm fused hit retains pipeline intermediates — entry not slim")
	}
	if warm.Summary == nil || *warm.Summary != *cold.Summary {
		t.Errorf("warm summary %+v, want %+v", warm.Summary, cold.Summary)
	}
	if warm.Lineage == nil {
		t.Error("warm hit lost the lineage")
	}
	if warm.Rel.String() != cold.Rel.String() {
		t.Error("warm table differs from cold")
	}
	st := db.Stats()
	if fs := st.Cache.Kinds[qcache.KindFused]; fs.Misses != 1 || fs.Hits != 1 {
		t.Errorf("fused traffic = %+v, want 1 miss + 1 hit", fs)
	}
	if st.FuseQueries != 2 {
		t.Errorf("fuse queries = %d, want 2 (warm hits still count)", st.FuseQueries)
	}
	entries := st.Cache.Entries

	traced, err := db.Query(streamFuseQuery, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if traced.Pipeline == nil {
		t.Fatal("WithTrace did not produce intermediates")
	}
	if traced.Rel.String() != cold.Rel.String() {
		t.Error("traced table differs")
	}
	st = db.Stats()
	if fs := st.Cache.Kinds[qcache.KindFused]; fs.Misses != 1 || fs.Hits != 1 {
		t.Errorf("WithTrace touched the fused tier: %+v", fs)
	}
	if st.Cache.Entries != entries {
		t.Errorf("WithTrace changed cache entries: %d -> %d", entries, st.Cache.Entries)
	}
}

// TestWithLineageTrimDoesNotPoisonCache: dropping lineage is a
// per-query projection over the shared slim entry, never a mutation
// of it.
func TestWithLineageTrimDoesNotPoisonCache(t *testing.T) {
	db := studentDB(t)
	lean, err := db.Query(streamFuseQuery, WithLineage(false))
	if err != nil {
		t.Fatal(err)
	}
	if lean.Lineage != nil {
		t.Fatal("WithLineage(false) kept the lineage")
	}
	full, err := db.Query(streamFuseQuery)
	if err != nil {
		t.Fatal(err)
	}
	if full.Lineage == nil {
		t.Fatal("the trimmed first query poisoned the cached entry")
	}
	if fs := db.Stats().Cache.Kinds[qcache.KindFused]; fs.Hits != 1 {
		t.Fatalf("second query missed the fused tier: %+v", fs)
	}
}

// TestQueryOptionConfigsKeyTheFusedTier: per-query detect/match
// configuration participates in the fused key, so an override can
// never be served another configuration's result.
func TestQueryOptionConfigsKeyTheFusedTier(t *testing.T) {
	db := studentDB(t)
	if _, err := db.Query(streamFuseQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(streamFuseQuery, WithDetectConfig(DetectionConfig{Threshold: 0.95})); err != nil {
		t.Fatal(err)
	}
	if fs := db.Stats().Cache.Kinds[qcache.KindFused]; fs.Misses != 2 || fs.Hits != 0 {
		t.Fatalf("fused traffic = %+v, want 2 distinct misses", fs)
	}
	// The original configuration still hits its own entry.
	if _, err := db.Query(streamFuseQuery); err != nil {
		t.Fatal(err)
	}
	if fs := db.Stats().Cache.Kinds[qcache.KindFused]; fs.Hits != 1 {
		t.Fatalf("fused traffic = %+v, want a hit for the original config", fs)
	}
}

// TestQueryRowsCancelMidStreamJoins: cancelling a stream mid-flight
// surfaces ctx's error and joins every pipeline worker. The statement
// executes on the draining goroutine, so the cancellation comes from
// another one.
func TestQueryRowsCancelMidStreamJoins(t *testing.T) {
	db := studentDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	db.OnCorrespondences(func(alias string, proposed []Correspondence) []Correspondence {
		close(started)
		<-ctx.Done()
		return proposed
	})
	before := runtime.NumGoroutine()

	rows, err := db.QueryRows(ctx, streamFuseQuery)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		cancel()
	}()
	for rows.Next() { //nolint:revive // drain to the cancellation
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.WaitForGoroutines(t, before+2)

	// The DB remains fully usable.
	db.OnCorrespondences(nil)
	res, err := db.Query(streamFuseQuery)
	if err != nil || res.Rel.Len() == 0 {
		t.Fatalf("query after cancelled stream: %v", err)
	}
}

// TestQueryBatchPerStatementDeadline: WithTimeout budgets each batch
// statement separately — a statement that blows its deadline fails
// alone, and the statements after it still run with a fresh budget.
func TestQueryBatchPerStatementDeadline(t *testing.T) {
	db := studentDB(t)
	db.OnDuplicates(func(det *Detection, merged *Relation) []int {
		time.Sleep(150 * time.Millisecond) // outlive the per-statement deadline
		return nil
	})
	results := db.QueryBatch(context.Background(), []string{
		`SELECT Name FROM EE_Student`,
		streamFuseQuery, // slow: the hook blocks past the deadline
		`SELECT FullName FROM CS_Students`,
	}, WithTimeout(30*time.Millisecond))
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Errorf("statement 0 failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Errorf("statement 1 err = %v, want DeadlineExceeded", results[1].Err)
	}
	if results[2].Err != nil || results[2].Result == nil {
		t.Errorf("statement 2 after the timed-out one failed: %v", results[2].Err)
	}
	for i, r := range results {
		if r.SQL == "" {
			t.Errorf("statement %d lost its SQL", i)
		}
	}
}

// TestQueryBatchCancelledContext: cancelling the batch's own context
// aborts the remaining statements with ctx's error.
func TestQueryBatchCancelledContext(t *testing.T) {
	db := studentDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := db.QueryBatch(ctx, []string{`SELECT Name FROM EE_Student`, streamFuseQuery})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("statement %d err = %v, want context.Canceled", i, r.Err)
		}
	}
	// And the DB still serves.
	if _, err := db.Query(`SELECT Name FROM EE_Student`); err != nil {
		t.Fatal(err)
	}
}

// TestQueryRowsCountsFusionAndErrors: the streaming path keeps Stats
// honest — a drained fusion stream counts as a fuse query, a stream
// that dies counts as a query error, and a deliberate early Close
// counts as neither.
func TestQueryRowsCountsFusionAndErrors(t *testing.T) {
	db := studentDB(t)

	rows, err := db.QueryRows(context.Background(), streamFuseQuery)
	if err != nil {
		t.Fatal(err)
	}
	drainToRelation(t, rows, "x")
	st := db.Stats()
	if st.FuseQueries != 1 || st.QueryErrors != 0 {
		t.Errorf("after fusion drain: fuse=%d errors=%d, want 1/0", st.FuseQueries, st.QueryErrors)
	}

	rows, err = db.QueryRows(context.Background(), `SELECT x FROM ghost`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() { //nolint:revive // drain to the failure
	}
	if rows.Err() == nil {
		t.Fatal("ghost stream did not fail")
	}
	rows.Close()
	if st = db.Stats(); st.QueryErrors != 1 {
		t.Errorf("failed stream not counted: errors=%d, want 1", st.QueryErrors)
	}

	rows, err = db.QueryRows(context.Background(), `SELECT Name FROM EE_Student`)
	if err != nil {
		t.Fatal(err)
	}
	rows.Close() // deliberate early close: not an error
	if st = db.Stats(); st.QueryErrors != 1 {
		t.Errorf("early Close counted as an error: errors=%d, want still 1", st.QueryErrors)
	}
}

// TestQueryRowsAllAdapter: the range-over-func form drains and closes.
func TestQueryRowsAllAdapter(t *testing.T) {
	db := studentDB(t)
	rows, err := db.QueryRows(context.Background(), `SELECT Name FROM EE_Student ORDER BY Name`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for row, err := range rows.All() {
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, row[0].Text())
	}
	if len(names) != 4 || names[0] != "Aisha Khan" {
		t.Fatalf("names = %v", names)
	}
}
