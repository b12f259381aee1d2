package hummer

import (
	"context"
	"fmt"
	"testing"
)

const joinQuery = `SELECT Name, Age, Town FROM EE_Student JOIN CS_Students ON Name = FullName WHERE Age > 20 ORDER BY Name`

// TestJoinQueryRowsByteIdentityAnyWorkers is the join determinism
// property test at the public API: with a join in the statement, the
// materialized Query and a drained QueryRows stream yield
// byte-identical tables at every parallelism setting — and the same
// bytes across settings. Query goes through the CSE tier;
// QueryRows streams the raw operator tree; neither may change a byte.
func TestJoinQueryRowsByteIdentityAnyWorkers(t *testing.T) {
	var baseline string
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := studentDB(t)
			db.SetParallelism(workers)
			want, err := db.Query(joinQuery)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := db.QueryRows(context.Background(), joinQuery)
			if err != nil {
				t.Fatal(err)
			}
			got := drainToRelation(t, rows, want.Rel.Name())
			if got.String() != want.Rel.String() {
				t.Errorf("stream differs from query:\n%s\nvs\n%s", got, want.Rel)
			}
			if baseline == "" {
				baseline = want.Rel.String()
			} else if want.Rel.String() != baseline {
				t.Errorf("workers=%d changed the bytes:\n%s\nvs baseline\n%s", workers, want.Rel, baseline)
			}
		})
	}
}

// TestQueryBatchConcurrentMatchesSequential: a concurrent batch
// (parallelism 4) returns, per statement and in statement order,
// exactly what the strictly sequential batch returns — including the
// failing statement's position — and the shared source subtree of the
// overlapping plain statements materializes exactly once.
func TestQueryBatchConcurrentMatchesSequential(t *testing.T) {
	stmts := []string{
		`SELECT Name, Age, Town FROM EE_Student JOIN CS_Students ON Name = FullName WHERE Age > 20 ORDER BY Name`,
		`SELECT Town FROM EE_Student JOIN CS_Students ON Name = FullName WHERE Age > 20`,
		`SELECT no_such_column FROM EE_Student`,
		`SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name) ORDER BY Name`,
		`SELECT count(*) AS n FROM EE_Student JOIN CS_Students ON Name = FullName WHERE Age > 20`,
	}
	seqDB := studentDB(t)
	seqDB.SetParallelism(1)
	seq := seqDB.QueryBatch(context.Background(), stmts)

	conDB := studentDB(t)
	conDB.SetParallelism(4)
	con := conDB.QueryBatch(context.Background(), stmts)

	if len(seq) != len(stmts) || len(con) != len(stmts) {
		t.Fatalf("result counts: seq=%d con=%d", len(seq), len(con))
	}
	for i := range stmts {
		if seq[i].SQL != stmts[i] || con[i].SQL != stmts[i] {
			t.Errorf("statement %d out of order", i)
		}
		if (seq[i].Err == nil) != (con[i].Err == nil) {
			t.Errorf("statement %d: seq err %v, con err %v", i, seq[i].Err, con[i].Err)
			continue
		}
		if seq[i].Err != nil {
			continue
		}
		if seq[i].Result.Rel.String() != con[i].Result.Rel.String() {
			t.Errorf("statement %d differs between sequential and concurrent batch", i)
		}
	}
	// The three plain statements share one FROM/JOIN/WHERE subtree:
	// exactly one materialization pass, concurrent or not.
	for name, st := range map[string]Stats{"sequential": seqDB.Stats(), "concurrent": conDB.Stats()} {
		if st.CSEUnique != 1 {
			t.Errorf("%s batch: cse unique = %d, want 1", name, st.CSEUnique)
		}
		if st.CSEShared != 2 {
			t.Errorf("%s batch: cse shared = %d, want 2", name, st.CSEShared)
		}
		if st.Queries != uint64(len(stmts)) {
			t.Errorf("%s batch: queries = %d, want %d", name, st.Queries, len(stmts))
		}
		if st.QueryErrors != 1 {
			t.Errorf("%s batch: errors = %d, want 1", name, st.QueryErrors)
		}
	}
}
