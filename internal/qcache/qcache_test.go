package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hummer/internal/fault"
	"hummer/internal/faultinject"
	"hummer/internal/relation"
)

func TestDoHitMiss(t *testing.T) {
	c := New(8)
	key := PlanKey("SELECT * FROM t")
	calls := 0
	compute := func(context.Context) (any, error) { calls++; return 42, nil }

	v, hit, err := c.DoContext(t.Context(), key, compute)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do = (%v, %v, %v), want (42, miss, nil)", v, hit, err)
	}
	v, hit, err = c.DoContext(t.Context(), key, compute)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do = (%v, %v, %v), want (42, hit, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	ks := st.Kinds[KindPlan]
	if ks.Hits != 1 || ks.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", ks)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New(8)
	key := Key{Kind: KindMatch, Fingerprint: "x"}
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, _ := c.DoContext(t.Context(), key, func(context.Context) (any, error) {
			close(started)
			<-release
			calls.Add(1)
			return "artifact", nil
		})
		results[waiters] = v
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoContext(t.Context(), key, func(context.Context) (any, error) {
				calls.Add(1)
				return "recomputed", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Give the waiters a chance to enqueue, then release the compute.
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", calls.Load())
	}
	for i, v := range results {
		if v != "artifact" {
			t.Fatalf("caller %d got %v, want shared artifact", i, v)
		}
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(8)
	key := Key{Kind: KindDetect, Fingerprint: "e"}
	calls := 0
	_, _, err := c.DoContext(t.Context(), key, func(context.Context) (any, error) { calls++; return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("want error")
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry stayed resident: len=%d", c.Len())
	}
	v, hit, err := c.DoContext(t.Context(), key, func(context.Context) (any, error) { calls++; return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry = (%v, %v, %v), want fresh 7", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestDoPanicDoesNotWedgeKey: a compute that panics is contained at
// the leader boundary — the leader's call returns a
// *fault.InternalError (never a process crash), the entry is dropped,
// and singleflight waiters re-elect and recompute exactly like the
// cancelled-leader path — never left wedged, never poisoned.
func TestDoPanicDoesNotWedgeKey(t *testing.T) {
	c := New(8)
	key := Key{Kind: KindPlan, Fingerprint: "p"}

	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(t.Context(), key, func(context.Context) (any, error) {
			close(started)
			<-release
			panic("parser bug")
		})
		leaderErr <- err
	}()
	<-started

	// Attach a waiter while the compute is in flight.
	type waiterResult struct {
		val any
		err error
	}
	waiter := make(chan waiterResult, 1)
	go func() {
		v, _, err := c.DoContext(t.Context(), key, func(context.Context) (any, error) { return "recomputed", nil })
		waiter <- waiterResult{v, err}
	}()
	// Let the waiter reach the in-flight entry, then fire the panic.
	// (Shared is counted when a waiter resolves, not when it attaches;
	// the Waiters gauge is the attach observable.)
	for c.Stats().Waiters == 0 {
		select {
		case r := <-waiter:
			t.Fatalf("waiter returned before the flight resolved: %v", r)
		default:
		}
	}
	close(release)

	// The leader gets the contained panic as a typed internal error.
	err := <-leaderErr
	var ie *fault.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("leader err = %v (%T), want *fault.InternalError", err, err)
	}
	if ie.Site != faultinject.SiteQCacheLeader {
		t.Errorf("Site = %q, want %q", ie.Site, faultinject.SiteQCacheLeader)
	}

	// The waiter re-elects like the cancelled-leader path and computes
	// its own fresh value — it never inherits the panicked flight.
	select {
	case r := <-waiter:
		if r.err != nil || r.val != "recomputed" {
			t.Errorf("re-elected waiter = (%v, %v), want fresh recompute", r.val, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after compute panic")
	}

	// The panicked entry itself never lingers; the waiter's recompute
	// is the only resident value for the key.
	v, ok := c.Get(key)
	if !ok || v != "recomputed" {
		t.Fatalf("Get = (%v, %v), want the waiter's recompute resident", v, ok)
	}

	// And the key keeps serving.
	v2, hit, err := c.DoContext(t.Context(), key, func(context.Context) (any, error) { return 1, nil })
	if err != nil || !hit || v2 != "recomputed" {
		t.Errorf("post-panic Do = (%v, %v, %v), want cached recompute", v2, hit, err)
	}
}

func TestEvictionLRU(t *testing.T) {
	c := New(2)
	mk := func(i int) Key { return Key{Kind: KindPlan, Fingerprint: fmt.Sprint(i)} }
	for i := 0; i < 3; i++ {
		c.DoContext(t.Context(), mk(i), func(context.Context) (any, error) { return i, nil })
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Key 0 is the least recently used and must be gone.
	if _, ok := c.Get(mk(0)); ok {
		t.Fatal("LRU entry 0 survived eviction")
	}
	if _, ok := c.Get(mk(2)); !ok {
		t.Fatal("most recent entry 2 was evicted")
	}
	if ev := c.Stats().Kinds[KindPlan].Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestPurge(t *testing.T) {
	c := New(8)
	for i := 0; i < 3; i++ {
		key := Key{Kind: KindMatch, Fingerprint: fmt.Sprint(i)}
		c.DoContext(t.Context(), key, func(context.Context) (any, error) { return i, nil })
	}
	if n := c.Purge(); n != 3 {
		t.Fatalf("purged %d, want 3", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after purge", c.Len())
	}
}

func TestFingerprintRelation(t *testing.T) {
	build := func(name string, rows ...[]string) *relation.Relation {
		b := relation.NewBuilder(name, "A", "B")
		for _, r := range rows {
			b.AddText(r...)
		}
		return b.Build()
	}
	r1 := build("t", []string{"x", "1"}, []string{"y", "2"})
	r2 := build("other", []string{"x", "1"}, []string{"y", "2"})
	if FingerprintRelation(r1) != FingerprintRelation(r2) {
		t.Fatal("fingerprint must not depend on the relation name")
	}
	r3 := build("t", []string{"x", "1"}, []string{"y", "3"})
	if FingerprintRelation(r1) == FingerprintRelation(r3) {
		t.Fatal("cell change must change the fingerprint")
	}
	r4 := build("t", []string{"y", "2"}, []string{"x", "1"})
	if FingerprintRelation(r1) == FingerprintRelation(r4) {
		t.Fatal("row order must change the fingerprint")
	}
}

func TestKeysDifferByConfig(t *testing.T) {
	type cfg struct{ Threshold float64 }
	k1 := DetectKey("rel:abc", cfg{0.8})
	k2 := DetectKey("rel:abc", cfg{0.9})
	if k1 == k2 {
		t.Fatal("config change must change the detect key")
	}
	m1 := MatchKey("l", "r", cfg{0.8})
	m2 := MatchKey("r", "l", cfg{0.8})
	if m1 == m2 {
		t.Fatal("swapping sides must change the match key")
	}
}
