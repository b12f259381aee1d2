package dupdetect

import (
	"context"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Sharded pair scoring, built on the shared parshard worker pool. The
// candidate stream is cut into fixed-size chunks; workers score chunks
// concurrently, each with its own strsim.Scratch and its own Stats /
// scored-pair buffers; the per-chunk results are folded back in chunk
// order. Because chunk boundaries and the within-chunk order are
// functions of the canonical pair order alone, the merged Result is
// byte-identical to the sequential path at any worker count (the
// parshard determinism contract).

// pairChunkSize is the number of candidate pairs per work unit.
const pairChunkSize = parshard.DefaultChunk

// shardResult is one chunk's (or the whole sequential run's) scoring
// output.
type shardResult struct {
	stats      Stats
	dups       []ScoredPair
	borderline []ScoredPair
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
// Tiny inputs fit in a single chunk; the pool would only add
// scheduling overhead (the result is identical either way).
func scoreWorkers(parallelism, n int) int {
	if n*(n-1)/2 <= pairChunkSize {
		return 1
	}
	return parshard.Workers(parallelism)
}

// scorePairs runs the candidate stream through the given number of
// worker goroutines and returns the merged, canonically ordered
// scoring output. ctx is checked at chunk boundaries: a cancelled run
// returns ctx's error with every goroutine — workers and the candidate
// generator — joined, and no partial result.
func scorePairs(ctx context.Context, m *measure, cfg Config, workers int, gen pairGen) (shardResult, error) {
	return parshard.RunContext(ctx, workers, pairChunkSize,
		parshard.Gen[[2]int](func(yield func([2]int) bool) {
			gen(func(a, b int) bool { return yield([2]int{a, b}) })
		}),
		func() func([2]int, *shardResult) {
			ps := &pairScorer{m: m, cfg: cfg}
			return func(p [2]int, out *shardResult) { ps.score(p[0], p[1], out) }
		},
		func(into *shardResult, chunk shardResult) {
			into.stats.CandidatePairs += chunk.stats.CandidatePairs
			into.stats.FilteredOut += chunk.stats.FilteredOut
			into.stats.Compared += chunk.stats.Compared
			into.dups = append(into.dups, chunk.dups...)
			into.borderline = append(into.borderline, chunk.borderline...)
		})
}
