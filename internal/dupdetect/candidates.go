package dupdetect

import (
	"context"
	"sort"
	"strings"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Candidate-pair generation for the key-based strategies — sorted
// neighborhood (Config.Window), prefix blocking (Config.Blocking) and
// q-gram blocking (Config.QGrams), described in the package doc. Each
// is a pairGen: a deterministic stream of (a, b) row-index pairs,
// a < b, in the strategy's canonical order. The detector consumes the
// stream either inline (sequential) or chunked across a worker pool
// (parallel); the canonical order is what makes the two paths produce
// byte-identical results. The exhaustive default streams nothing:
// scoreExhaustive (shard.go) walks its row ranges directly.

// pairGen enumerates candidate pairs in canonical order. It stops
// early when yield returns false.
type pairGen func(yield func(a, b int) bool)

// maxBlockRows caps a single block's size for the blocking strategy: a
// prefix shared by this many rows does not discriminate entities, and
// pairing inside it would reintroduce the quadratic blowup blocking
// exists to avoid.
const maxBlockRows = 1000

// sortKeys builds the sorted-neighborhood sorting key of every row
// from the measure's normalized-text cache (one ToLower per cell,
// already paid by the measure). ctx is polled every CancelStride rows;
// on cancellation the pass bails with partial keys — safe, because the
// scoring run re-checks ctx on entry and discards everything.
func (m *measure) sortKeys(ctx context.Context) []string {
	n := len(m.texts)
	keys := make([]string, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
			return keys
		}
		b.Reset()
		row := m.row(i)
		for k := range row {
			if !row[k].null {
				b.WriteString(m.texts[i][k])
				b.WriteByte(' ')
			}
		}
		keys[i] = b.String()
	}
	return keys
}

// windowPairs streams the sorted-neighborhood pairs: rows ordered by
// key, every pair within `window` positions, in (position, distance)
// order with a < b.
func windowPairs(keys []string, window int) pairGen {
	n := len(keys)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
	return func(yield func(a, b int) bool) {
		for pos := 0; pos < n; pos++ {
			for d := 1; d <= window && pos+d < n; d++ {
				a, b := order[pos], order[pos+d]
				if a > b {
					a, b = b, a
				}
				if !yield(a, b) {
					return
				}
			}
		}
	}
}

// blockStats counts what the key-based strategies threw away. The
// generator writes it while streaming; DetectContext folds it into the
// Result's Stats only after the scoring run has joined the generator
// goroutine, so no synchronization is needed.
type blockStats struct {
	// skipped counts oversized blocks (more than maxBlockRows rows
	// sharing one key) that were not paired.
	skipped int
	// skippedRows is the total membership of those blocks.
	skippedRows int
}

// multiPassBlocks is the shared multi-pass block-emission machinery
// behind the key-based blocking strategies. keysOf returns the
// blocking keys of row i under selected attribute k (nil or empty
// keys are skipped; NULL cells are already filtered by the caller's
// keysOf). Passes run in selected-attribute order; within a pass,
// blocks run in sorted key order and pairs in row order. Oversized
// blocks (more than maxBlockRows members) carry almost no
// discriminating power and are skipped — counted in st rather than
// dropped silently. The seen set deduplicates across keys and passes,
// so each pair is yielded exactly once, deterministically.
func multiPassBlocks(m *measure, st *blockStats, keysOf func(i, k int) []string) pairGen {
	n := len(m.texts)
	return func(yield func(a, b int) bool) {
		seen := make(map[uint64]struct{})
		for k := range m.cols {
			blocks := make(map[string][]int)
			for i := 0; i < n; i++ {
				if m.row(i)[k].null {
					continue
				}
				for _, key := range keysOf(i, k) {
					if key == "" {
						continue
					}
					blocks[key] = append(blocks[key], i)
				}
			}
			keys := make([]string, 0, len(blocks))
			for key := range blocks {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				rows := blocks[key]
				if len(rows) > maxBlockRows {
					st.skipped++
					st.skippedRows += len(rows)
					continue
				}
				if len(rows) < 2 {
					continue
				}
				for x := 0; x < len(rows); x++ {
					for y := x + 1; y < len(rows); y++ {
						a, b := rows[x], rows[y]
						id := uint64(a)<<32 | uint64(b)
						if _, dup := seen[id]; dup {
							continue
						}
						seen[id] = struct{}{}
						if !yield(a, b) {
							return
						}
					}
				}
			}
		}
	}
}

// blockingPairs streams the multi-pass prefix-blocking pairs: one key
// per cell, the first prefixLen runes of the normalized value. buf is
// reused across cells — multiPassBlocks consumes the keys before the
// next keysOf call.
func blockingPairs(m *measure, st *blockStats, prefixLen int) pairGen {
	var buf [1]string
	return multiPassBlocks(m, st, func(i, k int) []string {
		key := runePrefix(m.row(i)[k].runes, prefixLen)
		if key == "" {
			return nil
		}
		buf[0] = key
		return buf[:]
	})
}

// runePrefix returns the first p runes of rs as a string (the whole
// value when shorter).
func runePrefix(rs []rune, p int) string {
	if len(rs) <= p {
		return string(rs)
	}
	return string(rs[:p])
}

// qgramPrefixRunes is how much of an attribute value the q-gram
// blocking strategy derives its keys from — the same horizon the
// dumas scheme uses: long enough to cover the identifying head of the
// value, short enough that keys stay discriminating.
const qgramPrefixRunes = 10

// qgramPairs streams the multi-pass q-gram blocking pairs — the dumas
// candidate scheme ported to single-relation detection: every padded
// q-gram of the value's normalized prefix is a blocking key. Unlike
// plain prefix blocking, a typo inside the prefix leaves the value's
// other grams intact, so the pair is still discovered through an
// agreeing gram. Empty (non-null) values yield no keys: their grams
// would be pure padding, herding every empty cell of an attribute
// into one meaningless block.
func qgramPairs(m *measure, st *blockStats, q int) pairGen {
	return multiPassBlocks(m, st, func(i, k int) []string {
		rs := m.row(i)[k].runes
		if len(rs) == 0 {
			return nil
		}
		return dedupSortedStrings(strsim.QGrams(runePrefix(rs, qgramPrefixRunes), q))
	})
}

// dedupSortedStrings returns the sorted distinct strings of s,
// reordering s in place.
func dedupSortedStrings(s []string) []string {
	if len(s) <= 1 {
		return s
	}
	sort.Strings(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// candidateGen selects the key-based strategy for cfg (one of Window,
// Blocking and QGrams is set) over the measured relation and returns
// the generator plus the block counters it will fill while streaming
// (always zero for Window). Config validation has already rejected
// conflicting settings. ctx bounds the eager sort-key materialization
// of the Window strategy.
func candidateGen(ctx context.Context, m *measure, cfg Config) (pairGen, *blockStats) {
	st := &blockStats{}
	switch {
	case cfg.Window > 0:
		return windowPairs(m.sortKeys(ctx), cfg.Window), st
	case cfg.Blocking > 0:
		return blockingPairs(m, st, cfg.Blocking), st
	default:
		return qgramPairs(m, st, cfg.QGrams), st
	}
}
