package plan

import (
	"context"
	"testing"
	"time"

	"hummer/internal/metadata"
	"hummer/internal/obs"
	"hummer/internal/qcache"
	"hummer/internal/relation"
)

// TestDoFreshStaleOutcomeReachesWaiters: a caller that waits on a
// leader whose sources are replaced mid-compute is served the leader's
// value, and its span reads stale exactly like the leader's.
func TestDoFreshStaleOutcomeReachesWaiters(t *testing.T) {
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	aliases := []string{"custs"}
	_, gens, err := e.sourceVersions(aliases)
	if err != nil {
		t.Fatal(err)
	}
	key := qcache.CSEKey("fresh-test")
	started, release := make(chan struct{}), make(chan struct{})

	type outcome struct {
		v       any
		err     error
		outcome any
	}
	run := func(compute func(context.Context) (any, error)) chan outcome {
		done := make(chan outcome, 1)
		go func() {
			tr := obs.NewTrace("t", "test")
			v, err := e.doFresh(obs.ContextWithTrace(context.Background(), tr), "plan.cse", key, aliases, gens, compute)
			tr.Finish()
			var got any
			for _, c := range tr.View().Root.Children {
				if c.Name == "plan.cse" {
					got = c.Attrs["outcome"]
				}
			}
			done <- outcome{v, err, got}
		}()
		return done
	}

	leader := run(func(context.Context) (any, error) {
		close(started)
		<-release
		return "value", nil
	})
	<-started
	waiter := run(func(context.Context) (any, error) {
		t.Error("waiter computed; want it to share the leader's value")
		return nil, nil
	})
	for e.Cache.Stats().Waiters == 0 {
		time.Sleep(time.Millisecond)
	}
	// The source moves while the leader computes.
	custs := relation.NewBuilder("custs", "cname", "city").AddText("carol", "Oslo").Build()
	if err := e.Repo.Replace(metadata.NewRelationSource("custs", custs)); err != nil {
		t.Fatal(err)
	}
	close(release)

	for name, ch := range map[string]chan outcome{"leader": leader, "waiter": waiter} {
		got := <-ch
		if got.err != nil || got.v != "value" {
			t.Errorf("%s: doFresh = (%v, %v), want the leader's value", name, got.v, got.err)
		}
		if got.outcome != "stale" {
			t.Errorf("%s: plan.cse outcome = %v, want stale", name, got.outcome)
		}
	}
	if _, ok := e.Cache.Get(key); ok {
		t.Error("stale value entered the cache")
	}
}

// Allocation ceilings on the two warm cache tiers. A warm read is a
// few microseconds, so its cost is dominated by allocation: these pin
// the per-query allocs of a fused-tier hit and of a CSE-tier hit, so a
// freshness check or key build that starts allocating on the hit path
// shows up here before it shows up in served latency.
const (
	maxFusedHitAllocs = 30
	maxCSEHitAllocs   = 47
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func warmAllocs(t *testing.T, q string, kind qcache.Kind) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := testExecutor(t)
	e.Cache = qcache.New(0)
	if _, err := e.QueryContext(t.Context(), q); err != nil {
		t.Fatal(err)
	}
	before := e.Cache.Stats().Kinds[kind].Hits
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.QueryContext(t.Context(), q); err != nil {
			t.Fatal(err)
		}
	})
	if e.Cache.Stats().Kinds[kind].Hits == before {
		t.Fatalf("%s: warm runs never hit the %s tier", q, kind)
	}
	return allocs
}

func TestFusedHitAllocCeiling(t *testing.T) {
	const q = "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)"
	if got := warmAllocs(t, q, qcache.KindFused); got > maxFusedHitAllocs {
		t.Errorf("fused-tier hit allocs = %v, want <= %d", got, maxFusedHitAllocs)
	}
}

func TestCSEHitAllocCeiling(t *testing.T) {
	const q = "SELECT oid, city FROM orders JOIN custs ON cust = cname ORDER BY oid"
	if got := warmAllocs(t, q, qcache.KindCSE); got > maxCSEHitAllocs {
		t.Errorf("CSE-tier hit allocs = %v, want <= %d", got, maxCSEHitAllocs)
	}
}
