package dumas

import (
	"context"
	"sort"
	"strings"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Cross-relation candidate selection and scoring for the
// duplicate-discovery step. Three strategies exist:
//
//   - term at a time (the default, scorePostings): each left tuple
//     walks its sorted terms through posting lists term → (right row,
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
// The key-based strategies score a different candidate set, so they
// stay pair generators: a pairGen streams (leftRow, rightRow) pairs in
// canonical order, and the scorer runs strsim.DotTermVecs on each
// across the parshard worker pool.

// pairGen enumerates candidate (left, right) pairs in canonical order.
// It stops early when yield returns false.
type pairGen func(yield func(li, ri int) bool)

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

// scorePostings is the default strategy: term-at-a-time scoring of
// every left row against the inverted index of the right term vectors,
// left rows sharded across workers. Each shard owns an accumulator
// slot per right row, reset on first touch, so nothing is shared.
// A left row walks its terms in sorted order, hence acc[r] receives
// exactly the products DotTermVecs(left, right[r]) sums, in the same
// order; with the same > 1 clamp every Sim is bit-identical to the
// merge walk. ctx is polled every CancelStride left rows.
func scorePostings(ctx context.Context, workers int, leftVecs, rightVecs []strsim.TermVec, minSim float64) (scoreShard, error) {
	index := map[string][]posting{}
	for r, v := range rightVecs {
		for k, t := range v.Terms {
			index[t] = append(index[t], posting{row: r, w: v.Ws[k]})
		}
	}
	shards := make([]scoreShard, workers)
	err := parshard.RangesContext(ctx, workers, len(leftVecs), func(s, lo, hi int) {
		out := &shards[s]
		acc := make([]float64, len(rightVecs))
		stamp := make([]int, len(rightVecs)) // stamp[r] == l+1: r touched by left row l
		var touched []int
		for l := lo; l < hi; l++ {
			if l%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return
			}
			touched = touched[:0]
			lv := leftVecs[l]
			for k, t := range lv.Terms {
				for _, p := range index[t] {
					if stamp[p.row] != l+1 {
						stamp[p.row] = l + 1
						acc[p.row] = 0
						touched = append(touched, p.row)
					}
					acc[p.row] += lv.Ws[k] * p.w
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
	if err != nil {
		return scoreShard{}, err
	}
	var out scoreShard
	for _, sh := range shards {
		out.merge(sh)
	}
	return out, nil
}

// qgramPairs streams, for each left row in ascending order, the
// ascending right rows sharing at least one q-gram of the sort-key
// prefix. Posting lists longer than maxQGramBlock are skipped; a stamp
// array makes the per-row dedup allocation-free.
func qgramPairs(leftKeys, rightKeys []string, q int) pairGen {
	grams := func(key string) []string {
		return dedupSorted(strsim.QGrams(runePrefix(key, qgramPrefixRunes), q))
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
	return func(yield func(li, ri int) bool) {
		stamp := make([]int, len(rightKeys)) // stamp[ri] == li+1: ri already collected
		var cands []int
		for li, gs := range keyed {
			cands = cands[:0]
			for _, g := range gs {
				list := index[g]
				if len(list) > maxQGramBlock {
					continue
				}
				for _, ri := range list {
					if stamp[ri] != li+1 {
						stamp[ri] = li + 1
						cands = append(cands, ri)
					}
				}
			}
			sort.Ints(cands)
			for _, ri := range cands {
				if !yield(li, ri) {
					return
				}
			}
		}
	}
}

// snEntry is one tuple in the combined sorted-neighborhood order.
type snEntry struct {
	key  string
	side uint8 // 0 = left, 1 = right
	row  int
}

// windowPairs streams the cross-relation sorted-neighborhood pairs:
// left and right tuples merged and ordered by sort key, every
// cross-side pair within `window` positions, in (position, distance)
// order.
func windowPairs(leftKeys, rightKeys []string, window int) pairGen {
	entries := make([]snEntry, 0, len(leftKeys)+len(rightKeys))
	for i, k := range leftKeys {
		entries = append(entries, snEntry{key: k, side: 0, row: i})
	}
	for i, k := range rightKeys {
		entries = append(entries, snEntry{key: k, side: 1, row: i})
	}
	sort.Slice(entries, func(x, y int) bool {
		if entries[x].key != entries[y].key {
			return entries[x].key < entries[y].key
		}
		if entries[x].side != entries[y].side {
			return entries[x].side < entries[y].side
		}
		return entries[x].row < entries[y].row
	})
	return func(yield func(li, ri int) bool) {
		for pos := range entries {
			for d := 1; d <= window && pos+d < len(entries); d++ {
				a, b := entries[pos], entries[pos+d]
				if a.side == b.side {
					continue
				}
				if a.side == 1 {
					a, b = b, a
				}
				if !yield(a.row, b.row) {
					return
				}
			}
		}
	}
}

// dedupSorted returns the sorted distinct strings of s (s is not
// modified).
func dedupSorted(s []string) []string {
	if len(s) <= 1 {
		return s
	}
	out := append([]string(nil), s...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
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

// candidateGen selects the key-based strategy for cfg: Window or
// QGrams (validation has rejected both at once; with neither set the
// default strategy, scorePostings, runs instead).
func candidateGen(cfg Config, leftKeys, rightKeys []string) pairGen {
	if cfg.Window > 0 {
		return windowPairs(leftKeys, rightKeys, cfg.Window)
	}
	return qgramPairs(leftKeys, rightKeys, cfg.QGrams)
}
