package plan

import (
	"sync"
	"testing"

	"hummer/internal/metadata"
	"hummer/internal/qcache"
	"hummer/internal/relation"
)

func cseStats(e *Executor) qcache.KindStats {
	return e.Cache.Stats().Kinds[qcache.KindCSE]
}

// TestCSESharesSourceSubtree is the cross-statement CSE contract:
// statements that differ only above the source subtree (projection,
// ordering, aggregation) share one materialized FROM/JOIN/WHERE
// intermediate — one scan/join/filter pass for the lot.
func TestCSESharesSourceSubtree(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	queries := []string{
		"SELECT oid, city FROM orders JOIN custs ON cust = cname WHERE qty > 1 ORDER BY oid",
		"SELECT city FROM orders JOIN custs ON cust = cname WHERE qty > 1",
		"SELECT cust, count(*) AS n FROM orders JOIN custs ON cust = cname WHERE qty > 1 GROUP BY cust",
	}
	for _, q := range queries {
		if _, err := e.QueryContext(t.Context(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	ks := cseStats(e)
	if ks.Misses != 1 {
		t.Errorf("cse misses = %d, want 1 (one materialization pass)", ks.Misses)
	}
	if ks.Hits != uint64(len(queries)-1) {
		t.Errorf("cse hits = %d, want %d", ks.Hits, len(queries)-1)
	}
}

// TestCSEKeySeparatesSubtrees pins the keying rules: a different
// predicate, a different join column or different source *content*
// each address a different subtree.
func TestCSEKeySeparatesSubtrees(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	for _, q := range []string{
		"SELECT oid FROM orders WHERE qty > 1",
		"SELECT oid FROM orders WHERE qty > 2",
		"SELECT oid FROM orders JOIN custs ON cust = cname WHERE qty > 1",
	} {
		if _, err := e.QueryContext(t.Context(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	ks := cseStats(e)
	if ks.Misses != 3 || ks.Hits != 0 {
		t.Errorf("misses/hits = %d/%d, want 3/0 (distinct subtrees must not share)", ks.Misses, ks.Hits)
	}
}

// TestCSEIneligibleBareScan: a single-table scan without WHERE does no
// subtree work worth caching — the registered relation already is the
// shared intermediate — so it must not touch the tier.
func TestCSEIneligibleBareScan(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	if _, err := e.QueryContext(t.Context(), "SELECT oid FROM orders ORDER BY oid"); err != nil {
		t.Fatal(err)
	}
	ks := cseStats(e)
	if ks.Misses != 0 && ks.Hits != 0 {
		t.Errorf("bare scan touched the CSE tier: %+v", ks)
	}
}

// TestCSESameStatementReuse is the double-materialization fix: one
// statement whose scan feeds both the WHERE filter and the projection
// resolves the subtree once, and an identical statement later reuses
// the very same intermediate (hit, not a second pass).
func TestCSESameStatementReuse(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	const q = "SELECT oid, qty FROM orders WHERE qty > 1"
	a, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rel.String() != b.Rel.String() {
		t.Error("shared subtree changed the result")
	}
	ks := cseStats(e)
	if ks.Misses != 1 || ks.Hits != 1 {
		t.Errorf("misses/hits = %d/%d, want 1/1", ks.Misses, ks.Hits)
	}
}

// TestCSEPurgeDropsSharing: Purge drops completed CSE entries like
// any other artifact kind — the next statement re-materializes.
func TestCSEPurgeDropsSharing(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	const q = "SELECT oid FROM orders WHERE qty > 1"
	if _, err := e.QueryContext(t.Context(), q); err != nil {
		t.Fatal(err)
	}
	e.Cache.Purge()
	if _, err := e.QueryContext(t.Context(), q); err != nil {
		t.Fatal(err)
	}
	if ks := cseStats(e); ks.Misses != 2 {
		t.Errorf("misses = %d, want 2 after purge", ks.Misses)
	}
}

// TestCSEConcurrentSingleflight: concurrent identical statements share
// one materialization through the singleflight — exactly one miss,
// the rest hits or in-flight shares — and all results byte-identical.
func TestCSEConcurrentSingleflight(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	const q = "SELECT oid, city FROM orders JOIN custs ON cust = cname WHERE qty > 0 ORDER BY oid"
	want, err := e.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	e.Cache.Purge()
	const n = 8
	results := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.QueryContext(t.Context(), q)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.Rel.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i] != want.Rel.String() {
			t.Errorf("query %d result differs", i)
		}
	}
	ks := cseStats(e)
	if ks.Misses != 2 { // the warm-up miss + exactly one for the concurrent wave
		t.Errorf("misses = %d, want 2 (singleflight must collapse the wave)", ks.Misses)
	}
	if got := ks.Hits + ks.Shared; got != n-1 {
		t.Errorf("hits+shared = %d, want %d (everyone but the wave's leader)", got, n-1)
	}
}

// TestCSETierRefusesStaleGenerations is the CSE twin of
// TestFusedTierRefusesStaleGenerations: when the join's build side is
// replaced between the subtree key's fingerprinting and the subtree's
// scan, the materialized intermediate is served but never cached, so a
// later rollback to the fingerprinted data cannot hit a poisoned entry.
func TestCSETierRefusesStaleGenerations(t *testing.T) {
	const q = "SELECT oid, city FROM orders JOIN R ON cust = cname WHERE qty > 0 ORDER BY oid"
	mk := func(city string) *relation.Relation {
		return relation.NewBuilder("R", "cname", "city").
			AddText("alice", city).
			AddText("bob", "Tokyo").
			Build()
	}
	orders := relation.NewBuilder("orders", "oid", "cust", "qty").
		AddText("1", "alice", "2").
		AddText("2", "bob", "1").
		Build()
	repo := metadata.NewRepository()
	if err := repo.RegisterRelation("orders", orders); err != nil {
		t.Fatal(err)
	}
	trojan := &trojanSource{alias: "R", repo: repo, serve: mk("Berlin"), replace: mk("Paris")}
	if err := repo.Register(trojan); err != nil {
		t.Fatal(err)
	}
	e := &Executor{Repo: repo, Cache: qcache.New(8)}
	firstCity := func() string {
		t.Helper()
		res, err := e.QueryContext(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rel.Value(0, "city").Text()
	}

	// The racy query: cseKey fingerprints R through the trojan (which
	// installs the Paris data mid-flight), then the join scans it.
	if got := firstCity(); got != "Paris" {
		t.Fatalf("racy query city = %q, want Paris (the replaced data)", got)
	}
	// Roll R back to data fingerprint-identical to what the key named.
	if err := repo.Replace(metadata.NewRelationSource("R", mk("Berlin"))); err != nil {
		t.Fatal(err)
	}
	if got := firstCity(); got != "Berlin" {
		t.Fatalf("post-rollback city = %q, want Berlin — the CSE tier served a stale-keyed intermediate", got)
	}
	if ks := cseStats(e); ks.Hits != 0 {
		t.Errorf("cse hits = %d, want 0 (the racy intermediate must not be cached)", ks.Hits)
	}

	// From here on the tier behaves normally: the identical statement hits.
	if got := firstCity(); got != "Berlin" {
		t.Fatalf("steady-state city = %q, want Berlin", got)
	}
	if ks := cseStats(e); ks.Hits != 1 {
		t.Errorf("cse hits after steady-state repeat = %d, want 1: %+v", ks.Hits, ks)
	}
}
