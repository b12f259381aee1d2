package dumas

import (
	"cmp"
	"context"
	"slices"
	"strings"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Cross-relation candidate selection and scoring for the
// duplicate-discovery step. Three strategies exist:
//
//   - term at a time (the default, scorePostings): each left tuple
//     walks its sorted term ids through posting lists id → (right row,
//     weight) inverted from the right term vectors, accumulating its
//     similarity to every right tuple sharing a token. Pairs sharing no
//     token have TFIDF cosine 0 and can never reach MinTupleSim > 0,
//     so recall is exhaustive, and the sparse token↔tuple graph is
//     visited once per edge.
//   - sorted neighborhood (Config.Window): left and right tuples are
//     merged into one list ordered by their whole-tuple sort key
//     (lowercased tupleText); only cross-relation entries within the
//     window are paired — ~(n+m)·w candidates.
//   - q-gram prefix blocking (Config.QGrams): blocking keys are the
//     padded q-grams of the first qgramPrefixRunes runes of the sort
//     key. Tuples sharing any key are candidates, so a typo inside the
//     prefix still leaves the other grams agreeing — recall survives
//     dirty prefixes that defeat plain prefix blocking.
//
// All three score left rows in parshard.RangesContext shards
// (scoreLeft). The key-based strategies are partner functions: for a
// left row they list the right rows it is paired with, ascending and
// each once, and scorePartners runs dot on each pair.

// partnerFunc appends left row l's candidate right rows — ascending,
// each once — to dst and returns it.
type partnerFunc func(l int, dst []int) []int

// qgramPrefixRunes is how much of the sort key the q-gram blocking
// strategy derives its keys from: long enough to cover the leading
// attribute, short enough that blocks stay discriminating.
const qgramPrefixRunes = 10

// maxQGramBlock caps a posting list's size for the q-gram strategy: a
// gram shared by this many tuples does not discriminate entities, and
// pairing through it would reintroduce the quadratic blowup blocking
// exists to avoid.
const maxQGramBlock = 1000

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
	for _, sh := range shards {
		out.merge(sh)
	}
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

// scorePartners scores every left row against the right rows its
// partner function lists, one partner function per shard.
func scorePartners(ctx context.Context, workers int, leftVecs, rightVecs []termVec, minSim float64, newPartners func() partnerFunc) (scoreShard, error) {
	return scoreLeft(ctx, workers, len(leftVecs), func() func(int, *scoreShard) {
		partners := newPartners()
		var buf []int
		return func(l int, out *scoreShard) {
			buf = partners(l, buf[:0])
			out.stats.CandidatePairs += len(buf)
			for _, r := range buf {
				if sim := dot(leftVecs[l], rightVecs[r]); sim >= minSim {
					out.stats.Scored++
					out.pairs = append(out.pairs, TuplePair{LeftRow: l, RightRow: r, Sim: sim})
				}
			}
		}
	})
}

// qgramPartners pairs each left row with the right rows sharing at
// least one q-gram of its sort-key prefix. The gram index is built
// once; posting lists longer than maxQGramBlock are skipped, and each
// shard's partner function dedups through its own stamp array.
func qgramPartners(leftKeys, rightKeys []string, q int) func() partnerFunc {
	grams := func(key string) []string { // distinct, sorted
		gs := strsim.QGrams(runePrefix(key, qgramPrefixRunes), q)
		slices.Sort(gs)
		return slices.Compact(gs)
	}
	index := map[string][]int{}
	for ri, key := range rightKeys {
		for _, g := range grams(key) {
			index[g] = append(index[g], ri)
		}
	}
	keyed := make([][]string, len(leftKeys))
	for li, key := range leftKeys {
		keyed[li] = grams(key)
	}
	return func() partnerFunc {
		stamp := make([]int, len(rightKeys)) // stamp[ri] == li+1: ri already a partner of li
		return func(li int, dst []int) []int {
			for _, g := range keyed[li] {
				list := index[g]
				if len(list) > maxQGramBlock {
					continue
				}
				for _, ri := range list {
					if stamp[ri] != li+1 {
						stamp[ri] = li + 1
						dst = append(dst, ri)
					}
				}
			}
			slices.Sort(dst)
			return dst
		}
	}
}

// snEntry is one tuple in the combined sorted-neighborhood order.
type snEntry struct {
	key  string
	side uint8 // 0 = left, 1 = right
	row  int
}

// windowPartners pairs each left row with the right tuples within
// `window` positions of it in the merged order of left and right
// tuples by sort key. It keeps no scratch, so every shard shares one.
func windowPartners(leftKeys, rightKeys []string, window int) func() partnerFunc {
	entries := make([]snEntry, 0, len(leftKeys)+len(rightKeys))
	for i, k := range leftKeys {
		entries = append(entries, snEntry{key: k, side: 0, row: i})
	}
	for i, k := range rightKeys {
		entries = append(entries, snEntry{key: k, side: 1, row: i})
	}
	slices.SortFunc(entries, func(a, b snEntry) int {
		return cmp.Or(strings.Compare(a.key, b.key), cmp.Compare(a.side, b.side), cmp.Compare(a.row, b.row))
	})
	leftPos := make([]int, len(leftKeys))
	for p, e := range entries {
		if e.side == 0 {
			leftPos[e.row] = p
		}
	}
	partners := func(li int, dst []int) []int {
		p := leftPos[li]
		for q := max(p-window, 0); q <= min(p+window, len(entries)-1); q++ {
			if entries[q].side == 1 {
				dst = append(dst, entries[q].row)
			}
		}
		slices.Sort(dst)
		return dst
	}
	return func() partnerFunc { return partners }
}

// runePrefix returns the first p runes of s (the whole string when
// shorter).
func runePrefix(s string, p int) string {
	n := 0
	for i := range s {
		if n == p {
			return s[:i]
		}
		n++
	}
	return s
}

// sortKey renders a tuple's sorted-neighborhood / blocking key: the
// lowercased whole-tuple text.
func sortKey(text string) string { return strings.ToLower(text) }

// candidates selects the key-based strategy for cfg: Window or
// QGrams (validation has rejected both at once; with neither set the
// default strategy, scorePostings, runs instead). It returns a
// constructor of per-shard partner functions.
func candidates(cfg Config, leftKeys, rightKeys []string) func() partnerFunc {
	if cfg.Window > 0 {
		return windowPartners(leftKeys, rightKeys, cfg.Window)
	}
	return qgramPartners(leftKeys, rightKeys, cfg.QGrams)
}
