package dumas

import (
	"context"
	"slices"
	"strings"

	"hummer/internal/parshard"
)

// Cross-relation candidate selection and scoring for the
// duplicate-discovery step. Two strategies exist:
//
//   - term at a time (the default, scorePostings): each left tuple
//     walks its sorted term ids through posting lists id → (right row,
//     weight) inverted from the right term vectors, accumulating its
//     similarity to every right tuple sharing a token. Pairs sharing no
//     token have TFIDF cosine 0 and can never reach MinTupleSim > 0,
//     so recall is exhaustive, and the sparse token↔tuple graph is
//     visited once per edge.
//   - sorted neighborhood (Config.Window, scoreWindow): left and right
//     tuples are merged into one order by their whole-tuple sort key
//     (lowercased tupleText); only cross-relation entries within the
//     window are paired — ~(n+m)·w candidates.
//
// Both score left rows in parshard.RangesContext shards (scoreLeft).

// posting is one entry of the right-hand inverted index: a right row
// holding the term, and the term's weight in that row's term vector.
type posting struct {
	row int
	w   float64
}

// scoreLeft runs one row scorer per shard over left-row shards of
// [0, nl) and folds the shard outputs in shard order, which is left
// row order. ctx is polled every CancelStride left rows.
func scoreLeft(ctx context.Context, workers, nl int, newRow func() func(l int, out *scoreShard)) (scoreShard, error) {
	shards := make([]scoreShard, workers)
	err := parshard.RangesContext(ctx, workers, nl, func(s, lo, hi int) {
		row := newRow()
		for l := lo; l < hi; l++ {
			if l%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return
			}
			row(l, &shards[s])
		}
	})
	if err != nil {
		return scoreShard{}, err
	}
	var out scoreShard
	pairs := make([][]TuplePair, len(shards))
	for s, sh := range shards {
		out.stats.CandidatePairs += sh.stats.CandidatePairs
		out.stats.Scored += sh.stats.Scored
		pairs[s] = sh.pairs
	}
	out.pairs = slices.Concat(pairs...)
	return out, nil
}

// scorePostings is the default strategy: term-at-a-time scoring of
// every left row against the inverted index of the right term vectors
// over nterms term ids. Each shard owns an accumulator slot per right
// row, reset on first touch, so nothing is shared. A left row walks
// its terms in sorted order, hence acc[r] receives exactly the
// products dot(left, right[r]) sums, in the same order; with the same
// > 1 clamp every Sim is bit-identical to the merge walk.
func scorePostings(ctx context.Context, workers int, leftVecs, rightVecs []termVec, nterms int, minSim float64) (scoreShard, error) {
	// Compressed rows: id k's postings are post[start[k]:start[k+1]],
	// by ascending right row. Counts become end offsets, and filling
	// rows in reverse moves each offset back to its list's start.
	start := make([]int32, nterms+1)
	for _, v := range rightVecs {
		for _, id := range v.ids {
			start[id]++
		}
	}
	for k := 1; k <= nterms; k++ {
		start[k] += start[k-1]
	}
	post := make([]posting, start[nterms])
	for r := len(rightVecs) - 1; r >= 0; r-- {
		v := rightVecs[r]
		for k, id := range v.ids {
			start[id]--
			post[start[id]] = posting{row: r, w: v.ws[k]}
		}
	}
	return scoreLeft(ctx, workers, len(leftVecs), func() func(int, *scoreShard) {
		acc := make([]float64, len(rightVecs))
		stamp := make([]int, len(rightVecs)) // stamp[r] == l+1: r touched by left row l
		var touched []int
		return func(l int, out *scoreShard) {
			touched = touched[:0]
			lv := leftVecs[l]
			for k, id := range lv.ids {
				for _, p := range post[start[id]:start[id+1]] {
					if stamp[p.row] != l+1 {
						stamp[p.row] = l + 1
						acc[p.row] = 0
						touched = append(touched, p.row)
					}
					acc[p.row] += lv.ws[k] * p.w
				}
			}
			out.stats.CandidatePairs += len(touched)
			for _, r := range touched {
				sim := acc[r]
				if sim > 1 { // DotTermVecs's rounding guard
					sim = 1
				}
				if sim >= minSim {
					out.stats.Scored++
					out.pairs = append(out.pairs, TuplePair{LeftRow: l, RightRow: r, Sim: sim})
				}
			}
		}
	})
}

// scoreWindow is the sorted-neighborhood strategy: keys holds the sort
// keys of the left rows followed by those of the right rows, and each
// left row is scored against the right rows within window positions
// of it in their parshard.SortedOrder, ascending. A stable sort of
// left ++ right orders equal keys left before right, each side by row.
func scoreWindow(ctx context.Context, workers int, leftVecs, rightVecs []termVec, keys []string, window int, minSim float64) (scoreShard, error) {
	nl := len(leftVecs)
	order, pos := parshard.SortedOrder(keys)
	return scoreLeft(ctx, workers, nl, func() func(int, *scoreShard) {
		var partners []int
		return func(l int, out *scoreShard) {
			partners = partners[:0]
			p := pos[l]
			for q := max(p-window, 0); q <= min(p+window, len(order)-1); q++ {
				if r := order[q] - nl; r >= 0 {
					partners = append(partners, r)
				}
			}
			slices.Sort(partners)
			out.stats.CandidatePairs += len(partners)
			for _, r := range partners {
				if sim := dot(leftVecs[l], rightVecs[r]); sim >= minSim {
					out.stats.Scored++
					out.pairs = append(out.pairs, TuplePair{LeftRow: l, RightRow: r, Sim: sim})
				}
			}
		}
	})
}

// sortKey renders a tuple's sorted-neighborhood key: the lowercased
// whole-tuple text.
func sortKey(text string) string { return strings.ToLower(text) }
