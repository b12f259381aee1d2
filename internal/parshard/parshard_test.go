package parshard

import (
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// intStream yields 0..n-1 in order.
func intStream(n int) Gen[int] {
	return func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return
			}
		}
	}
}

// collect is the canonical Run harness used by the tests: each item is
// transformed and appended; the fold must restore stream order.
func collect(workers, chunkSize, n int) []int {
	type res struct{ items []int }
	out := Run(workers, chunkSize, intStream(n),
		func() func(int, *res) {
			return func(i int, r *res) { r.items = append(r.items, i*i) }
		},
		func(into *res, chunk res) { into.items = append(into.items, chunk.items...) })
	return out.items
}

// TestRunDeterministicAcrossWorkerCounts: the folded result must be
// byte-identical to the sequential result at every worker count and
// chunk size, including streams that do not fill a whole chunk.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(5000)
		chunk := 1 + rng.Intn(300)
		want := collect(1, chunk, n)
		for _, w := range []int{2, 3, 7, 16} {
			got := collect(w, chunk, n)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("n=%d chunk=%d workers=%d: order not restored", n, chunk, w)
			}
		}
	}
}

// TestRunEmptyStream: an empty stream folds to the zero result.
func TestRunEmptyStream(t *testing.T) {
	for _, w := range []int{1, 4} {
		if got := collect(w, 8, 0); len(got) != 0 {
			t.Errorf("workers=%d: empty stream gave %v", w, got)
		}
	}
}

// TestRunPerWorkerState: newWorker must be called once per busy worker
// so scratch state is never shared.
func TestRunPerWorkerState(t *testing.T) {
	var created atomic.Int32
	type res struct{ n int }
	out := Run(4, 16, intStream(1000),
		func() func(int, *res) {
			created.Add(1)
			buf := make([]int, 0, 16) // worker-private scratch
			return func(i int, r *res) {
				buf = append(buf[:0], i)
				r.n += buf[0]*0 + 1
			}
		},
		func(into *res, chunk res) { into.n += chunk.n })
	if out.n != 1000 {
		t.Fatalf("processed %d items, want 1000", out.n)
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Fatalf("newWorker called %d times, want 1..4", c)
	}
}

// TestRunDefaultChunk: chunkSize <= 0 must fall back to DefaultChunk
// rather than looping forever or panicking.
func TestRunDefaultChunk(t *testing.T) {
	want := collect(1, DefaultChunk, 3000)
	if got := collect(3, 0, 3000); !reflect.DeepEqual(want, got) {
		t.Fatal("chunkSize=0 differs from DefaultChunk result")
	}
}

// TestWorkers: 0 and negative resolve to GOMAXPROCS, positive passes
// through.
func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("Workers(<=0) must resolve to at least 1")
	}
}

// TestRangesCoverage: the shards must partition [0, n) exactly, with
// no overlap and no gap, at every worker count.
func TestRangesCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1001} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			seen := make([]int32, n)
			if err := RangesContext(t.Context(), w, n, func(shard, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestRangesShardIndexes: shard ids are dense and aligned with range
// order, so callers can fold shard-local reductions deterministically.
func TestRangesShardIndexes(t *testing.T) {
	n, w := 100, 4
	los := make([]int, w)
	his := make([]int, w)
	if err := RangesContext(t.Context(), w, n, func(shard, lo, hi int) {
		los[shard] = lo
		his[shard] = hi
	}); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for s := 0; s < w; s++ {
		if los[s] != prev {
			t.Fatalf("shard %d starts at %d, want %d", s, los[s], prev)
		}
		if his[s] <= los[s] {
			t.Fatalf("shard %d is empty: [%d,%d)", s, los[s], his[s])
		}
		prev = his[s]
	}
	if prev != n {
		t.Fatalf("shards end at %d, want %d", prev, n)
	}
}

// TestSortedOrderBreaksTiesByIndex: SortedOrder is the stable sort of
// the key indices — equal keys keep ascending index order, which both
// windowed candidate strategies' byte-identity rests on — and pos
// inverts order. Random keys over a tiny alphabet force long tie runs;
// the reference is sort.SliceStable.
func TestSortedOrderBreaksTiesByIndex(t *testing.T) {
	order, pos := SortedOrder([]string{"b", "a", "b", "a", ""})
	if want := []int{4, 1, 3, 0, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if want := []int{3, 1, 4, 2, 0}; !reflect.DeepEqual(pos, want) {
		t.Fatalf("pos = %v, want %v", pos, want)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		keys := make([]string, rng.Intn(200))
		for i := range keys {
			keys[i] = string(rune('a' + rng.Intn(3)))
		}
		want := make([]int, len(keys))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return keys[want[x]] < keys[want[y]] })
		order, pos := SortedOrder(keys)
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("trial %d: order %v, stable sort %v", trial, order, want)
		}
		for p, i := range order {
			if pos[i] != p {
				t.Fatalf("trial %d: pos[%d] = %d, want %d", trial, i, pos[i], p)
			}
		}
	}
}
