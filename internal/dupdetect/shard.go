package dupdetect

import (
	"context"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Sharded pair scoring on parshard. Every candidate strategy scores
// folded row ranges in parshard.RangesContext shards (scoreRows): each
// row's partners — every later row by default, a partnerFunc's list
// for the key-based strategies — are scored once, by the shard that
// owns the row. Shards keep private scratch and outputs, folded back in
// ascending row order, so the merged Result is byte-identical to the
// sequential path at any worker count (the parshard determinism
// contract).

// pairChunkSize is the all-pairs count at or below which scoring stays
// on one worker.
const pairChunkSize = parshard.DefaultChunk

// shardResult is one shard's (or the whole sequential run's) scoring
// output.
type shardResult struct {
	stats      Stats
	dups       []ScoredPair
	borderline []ScoredPair
}

// merge appends part after into: the fold scoreRows applies in
// ascending row order.
func (into *shardResult) merge(part shardResult) {
	into.stats.CandidatePairs += part.stats.CandidatePairs
	into.stats.FilteredOut += part.stats.FilteredOut
	into.stats.Compared += part.stats.Compared
	into.dups = append(into.dups, part.dups...)
	into.borderline = append(into.borderline, part.borderline...)
}

// pairScorer scores candidate pairs with private scratch buffers; one
// per worker.
type pairScorer struct {
	m       *measure
	cfg     Config
	scratch strsim.Scratch
}

func (ps *pairScorer) score(a, b int, out *shardResult) {
	out.stats.CandidatePairs++
	if !ps.cfg.DisableFilter && ps.m.upperBound(a, b) < ps.cfg.Threshold {
		out.stats.FilteredOut++
		return
	}
	out.stats.Compared++
	sim := ps.m.similarity(a, b, &ps.scratch)
	switch {
	case sim >= ps.cfg.Threshold:
		out.dups = append(out.dups, ScoredPair{A: a, B: b, Sim: sim})
	case sim >= ps.cfg.Threshold*0.9:
		out.borderline = append(out.borderline, ScoredPair{A: a, B: b, Sim: sim})
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

// scoreRows scores each row's partners, rows ascending, over at most
// ⌈n/2⌉ shards. newPartners builds one partnerFunc per shard; nil
// means every later row (the exhaustive default). Fold index j owns
// rows j and n−1−j, which evens out the exhaustive triangle; shard s
// with fold range [lo, hi) scores front rows [lo, hi) and back rows
// [max(n−hi, ⌈n/2⌉), n−lo) — the max keeps an odd n's middle row out
// of the backs. Fronts in shard order, then backs in reverse shard
// order, are the rows in ascending order, so pairs come out in
// ascending (A, B) order. ctx is polled once per row.
func scoreRows(ctx context.Context, m *measure, cfg Config, workers int, newPartners func() partnerFunc) (shardResult, error) {
	n := len(m.texts)
	half := (n + 1) / 2
	fronts := make([]shardResult, workers)
	backs := make([]shardResult, workers)
	err := parshard.RangesContext(ctx, workers, half, func(s, lo, hi int) {
		ps := &pairScorer{m: m, cfg: cfg}
		var partners partnerFunc
		if newPartners != nil {
			partners = newPartners()
		}
		var buf []int
		rows := func(from, to int, out *shardResult) bool {
			for a := from; a < to; a++ {
				if parshard.Canceled(ctx) {
					return false
				}
				if partners == nil {
					for b := a + 1; b < n; b++ {
						ps.score(a, b, out)
					}
					continue
				}
				buf = partners(a, buf[:0])
				for _, b := range buf {
					ps.score(a, b, out)
				}
			}
			return true
		}
		if rows(lo, hi, &fronts[s]) {
			rows(max(n-hi, half), n-lo, &backs[s])
		}
	})
	if err != nil {
		return shardResult{}, err
	}
	var out shardResult
	for s := range fronts {
		out.merge(fronts[s])
	}
	for s := len(backs) - 1; s >= 0; s-- {
		out.merge(backs[s])
	}
	return out, nil
}
