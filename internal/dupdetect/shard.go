package dupdetect

import (
	"cmp"
	"context"
	"slices"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Sharded pair scoring on parshard. Every candidate strategy scores
// folded ranges of units — distinct detection tuples by default, rows
// for the key-based strategies — in parshard.RangesContext shards
// (scoreRows): each unit's partners are scored once, by the shard that
// owns the unit. Shards keep private scratch and outputs, folded back
// in ascending unit order, so the merged Result is byte-identical to
// the sequential path at any worker count (the parshard determinism
// contract).

// pairChunkSize is the all-pairs count at or below which scoring stays
// on one worker.
const pairChunkSize = parshard.DefaultChunk

// foldUnits partitions rows into units numbered by first row: unit u
// is rows[start[u]:start[u+1]], ascending.
type foldUnits struct{ rows, start []int }

func (us foldUnits) len() int       { return len(us.start) - 1 }
func (us foldUnits) of(u int) []int { return us.rows[us.start[u]:us.start[u+1]] }

// groupRows gathers the rows of each of t units by a counting sort on
// unitOf, row i's unit.
func groupRows(unitOf []int, t int) foldUnits {
	start := make([]int, t+1)
	for _, u := range unitOf {
		start[u]++
	}
	for u := 1; u <= t; u++ {
		start[u] += start[u-1] // unit u's end
	}
	rows := make([]int, len(unitOf))
	for i := len(unitOf) - 1; i >= 0; i-- { // back to front: start[u] ends at unit u's start
		start[unitOf[i]]--
		rows[start[unitOf[i]]] = i
	}
	return foldUnits{rows: rows, start: start}
}

// singleRows makes every one of n rows its own unit.
func singleRows(n int) foldUnits {
	seq := make([]int, n+1)
	for i := range seq {
		seq[i] = i
	}
	return foldUnits{rows: seq[:n], start: seq}
}

// shardResult is one shard's (or the whole sequential run's) scoring
// output.
type shardResult struct {
	stats      Stats
	dups       []ScoredPair
	borderline []ScoredPair
}

// pairScorer scores candidate unit pairs with private scratch buffers;
// one per worker.
type pairScorer struct {
	m       *measure
	cfg     Config
	units   foldUnits
	scratch strsim.Scratch
}

// score scores units u ≤ v (u == v pairs a unit's own rows). The one
// score stands for every row pair across the two units: each counts in
// Stats, and each that passes is emitted as (min, max).
func (ps *pairScorer) score(u, v int, out *shardResult) {
	ru, rv := ps.units.of(u), ps.units.of(v)
	pairs := len(ru) * len(rv)
	if u == v {
		pairs = len(ru) * (len(ru) - 1) / 2
	}
	out.stats.CandidatePairs += pairs
	if !ps.cfg.DisableFilter && ps.m.upperBound(ru[0], rv[0]) < ps.cfg.Threshold {
		out.stats.FilteredOut += pairs
		return
	}
	out.stats.Compared += pairs
	sim := ps.m.similarity(ru[0], rv[0], &ps.scratch)
	dst := &out.borderline
	if sim >= ps.cfg.Threshold {
		dst = &out.dups
	} else if sim < ps.cfg.Threshold*0.9 {
		return
	}
	for x, a := range ru {
		if u == v {
			rv = ru[x+1:]
		}
		for _, b := range rv {
			*dst = append(*dst, ScoredPair{A: min(a, b), B: max(a, b), Sim: sim})
		}
	}
}

// scoreWorkers is the number of goroutines that score the candidates
// of an n-row relation at the given Parallelism (0 = GOMAXPROCS).
// Tiny inputs stay on one worker; more would only add scheduling
// overhead (the result is identical either way).
func scoreWorkers(parallelism, n int) int {
	if n*(n-1)/2 <= pairChunkSize {
		return 1
	}
	return parshard.Workers(parallelism)
}

// scoreRows scores each of t units' partners over at most ⌈t/2⌉
// shards. newPartners builds one partnerFunc per shard over single-row
// units; nil means the exhaustive default over m's tuples, each paired
// with itself (when it holds two rows or more) and every later tuple.
// Fold index j owns units j and t−1−j, which evens out the exhaustive
// triangle; shard s with fold range [lo, hi) scores front units
// [lo, hi) and back units [max(t−hi, ⌈t/2⌉), t−lo) — the max keeps an
// odd t's middle unit out of the backs. Tuples interleave, so the row
// pairs are sorted by (A, B) at the end. ctx is polled once per unit.
func scoreRows(ctx context.Context, m *measure, cfg Config, workers int, newPartners func() partnerFunc) (shardResult, error) {
	us := m.tuples
	if newPartners != nil {
		us = singleRows(len(m.texts))
	}
	t := us.len()
	half := (t + 1) / 2
	// Shard s writes its fronts to parts[s] and its backs to
	// parts[2·workers−1−s], so parts lists the outputs in ascending
	// unit order.
	parts := make([]shardResult, 2*workers)
	err := parshard.RangesContext(ctx, workers, half, func(s, lo, hi int) {
		ps := &pairScorer{m: m, cfg: cfg, units: us}
		var partners partnerFunc
		if newPartners != nil {
			partners = newPartners()
		}
		var buf []int
		units := func(from, to int, out *shardResult) bool {
			for u := from; u < to; u++ {
				if parshard.Canceled(ctx) {
					return false
				}
				if partners == nil {
					if len(us.of(u)) > 1 {
						ps.score(u, u, out)
					}
					for v := u + 1; v < t; v++ {
						ps.score(u, v, out)
					}
					continue
				}
				buf = partners(u, buf[:0])
				for _, v := range buf {
					ps.score(u, v, out)
				}
			}
			return true
		}
		if units(lo, hi, &parts[s]) {
			units(max(t-hi, half), t-lo, &parts[len(parts)-1-s])
		}
	})
	if err != nil {
		return shardResult{}, err
	}
	dups := make([][]ScoredPair, len(parts))
	borderline := make([][]ScoredPair, len(parts))
	var out shardResult
	for i, part := range parts {
		out.stats.CandidatePairs += part.stats.CandidatePairs
		out.stats.FilteredOut += part.stats.FilteredOut
		out.stats.Compared += part.stats.Compared
		dups[i], borderline[i] = part.dups, part.borderline
	}
	out.dups = slices.Concat(dups...)
	out.borderline = slices.Concat(borderline...)
	byRows := func(p, q ScoredPair) int { return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B)) }
	slices.SortFunc(out.dups, byRows)
	slices.SortFunc(out.borderline, byRows)
	return out, nil
}
