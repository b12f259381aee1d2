package plan

import (
	"testing"

	"hummer/internal/metadata"
	"hummer/internal/qcache"
	"hummer/internal/relation"
)

// trojanSource is a metadata.Source whose first Load performs a
// concurrent-looking Replace of its own alias — the deterministic
// reproduction of a source replace racing a query between the fused
// key's fingerprinting and the pipeline's load.
type trojanSource struct {
	alias   string
	repo    *metadata.Repository
	serve   *relation.Relation // what this Load returns (the "old" data)
	replace *relation.Relation // what the race installs
	fired   bool
}

func (s *trojanSource) Alias() string { return s.alias }

func (s *trojanSource) Load() (*relation.Relation, error) {
	if !s.fired {
		s.fired = true
		if err := s.repo.Replace(metadata.NewRelationSource(s.alias, s.replace)); err != nil {
			return nil, err
		}
	}
	return s.serve, nil
}

// TestFusedTierKeyedByRawText: the fused key is the raw statement
// text, never Stmt.String() — that rendering is not injective (an
// alias quoted as "Age, City" renders exactly like the two bare items
// `Age, City`), and two different statements must never serve each
// other's cached results.
func TestFusedTierKeyedByRawText(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(8)
	// One select item whose quoted alias contains ", "...
	q1 := `SELECT Name AS "Age, City" FUSE FROM EE_Student, CS_Students FUSE BY (Name)`
	// ...vs two select items — Stmt.String() renders both identically.
	q2 := `SELECT Name AS Age, City FUSE FROM EE_Student, CS_Students FUSE BY (Name)`

	r1, err := e.QueryContext(t.Context(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Rel.Schema().Names(); len(got) != 1 {
		t.Fatalf("q1 columns = %v, want the single quoted-alias column", got)
	}
	r2, err := e.QueryContext(t.Context(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Rel.Schema().Names(); len(got) != 2 {
		t.Fatalf("q2 columns = %v, want two columns — served q1's cached result?", got)
	}
	fs := e.Cache.Stats().Kinds[qcache.KindFused]
	if fs.Misses != 2 || fs.Hits != 0 {
		t.Errorf("fused traffic = %+v, want two distinct misses", fs)
	}
}

// TestFusedTierRefusesStaleGenerations: when a source is replaced
// between the fused key's fingerprinting and the pipeline's load, the
// computed result must be served but NOT cached — otherwise a later
// rollback to the old data would hit the poisoned entry and silently
// serve rows derived from the newer data.
func TestFusedTierRefusesStaleGenerations(t *testing.T) {
	q := `SELECT Name, RESOLVE(Age, max) FUSE FROM L, R FUSE BY (Name)`
	mk := func(name, age string) *relation.Relation {
		return relation.NewBuilder("R", "Name", "Age").AddText(name, age).Build()
	}
	left := relation.NewBuilder("L", "Name", "Age").
		AddText("Jonathan Smith", "21").
		AddText("Maria Garcia", "24").
		Build()
	v1 := mk("Jonathan Smith", "22") // fused max(Age) for Jonathan = 22
	v2 := mk("Jonathan Smith", "99") // the racing replacement: max = 99

	repo := metadata.NewRepository()
	if err := repo.RegisterRelation("L", left); err != nil {
		t.Fatal(err)
	}
	trojan := &trojanSource{alias: "R", repo: repo, serve: v1, replace: v2}
	if err := repo.Register(trojan); err != nil {
		t.Fatal(err)
	}
	e := &Executor{Repo: repo, Cache: qcache.New(8)}

	// The racy query: fusedKey fingerprints R via the trojan (which
	// installs v2 mid-flight), then the pipeline loads and fuses v2.
	// The result reflects v2 — correct to serve — but must not be
	// cached under v1's fingerprint.
	res, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rel.Value(0, "Age").Int(); got != 99 {
		t.Fatalf("racy query fused Age = %d, want 99 (the replaced data)", got)
	}

	// Roll R back to data fingerprint-identical to v1 — the key the
	// bug would have poisoned — and re-issue the identical statement.
	if err := repo.Replace(metadata.NewRelationSource("R", mk("Jonathan Smith", "22"))); err != nil {
		t.Fatal(err)
	}
	res, err = e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rel.Value(0, "Age").Int(); got != 22 {
		t.Fatalf("post-rollback fused Age = %d, want 22 — the fused tier served a stale-keyed entry", got)
	}

	// The racy computation must show up as a refused miss, never a
	// cached entry: only the post-rollback query may populate the tier.
	fs := e.Cache.Stats().Kinds[qcache.KindFused]
	if fs.Hits != 0 {
		t.Errorf("fused hits = %d, want 0 (nothing cacheable existed to hit)", fs.Hits)
	}

	// And from here on the tier behaves normally: identical query hits.
	if _, err := e.QueryContext(t.Context(), q); err != nil {
		t.Fatal(err)
	}
	fs = e.Cache.Stats().Kinds[qcache.KindFused]
	if fs.Hits != 1 {
		t.Errorf("fused hits after steady-state repeat = %d, want 1: %+v", fs.Hits, fs)
	}
}
