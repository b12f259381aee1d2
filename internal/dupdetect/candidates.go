package dupdetect

import (
	"context"
	"slices"
	"sort"
	"strings"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Candidate partners for the key-based strategies — sorted
// neighborhood (Config.Window), prefix blocking (Config.Blocking) and
// q-gram blocking (Config.QGrams), described in the package doc. Each
// is a partnerFunc: row a's candidate partners, every row b > a that
// the strategy pairs with a, each once and ascending. scoreRows
// (shard.go) enumerates them row by row over the same folded row
// shards the exhaustive default uses, so every strategy scores its
// pairs in ascending (A, B) order. The exhaustive default has no
// partner function: its partners are all later rows.

// partnerFunc appends row a's candidate partners — rows b > a,
// ascending, each once — to dst and returns it.
type partnerFunc func(a int, dst []int) []int

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

// windowPartners pairs the rows within `window` positions of each
// other in the stable sort by key: row a's partners are the later rows
// among its neighbors in that order. It keeps no scratch, so every
// shard shares one.
func windowPartners(keys []string, window int) func() partnerFunc {
	n := len(keys)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
	pos := make([]int, n)
	for p, i := range order {
		pos[i] = p
	}
	partners := func(a int, dst []int) []int {
		p := pos[a]
		for q := max(p-window, 0); q <= min(p+window, n-1); q++ {
			if b := order[q]; b > a {
				dst = append(dst, b)
			}
		}
		slices.Sort(dst)
		return dst
	}
	return func() partnerFunc { return partners }
}

// blockIndex is the sparse row↔block graph of a blocking strategy:
// the kept blocks of every pass and, per row, the blocks holding it.
type blockIndex struct {
	blocks    [][]int // member rows of each kept block, ascending
	rowBlocks [][]int // per row, the kept blocks it belongs to
	// skipped counts oversized blocks (more than maxBlockRows rows
	// sharing one key) that were not paired.
	skipped int
	// skippedRows is the total membership of those blocks.
	skippedRows int
}

// buildBlocks is the shared multi-pass block construction behind the
// key-based blocking strategies. keysOf returns the blocking keys of
// row i under selected attribute k (NULL cells are skipped, and so are
// empty keys); rows sharing a key in one pass form a block. Oversized
// blocks (more than maxBlockRows members) carry almost no
// discriminating power and are skipped — counted rather than dropped
// silently — and single-row blocks pair nothing. ctx is polled every
// CancelStride rows of each pass; on cancellation the index is partial
// and the scoring run, which re-checks ctx on entry, discards it.
func buildBlocks(ctx context.Context, m *measure, keysOf func(i, k int) []string) *blockIndex {
	n := len(m.texts)
	bi := &blockIndex{rowBlocks: make([][]int, n)}
	for k := range m.cols {
		var pass [][]int
		ids := make(map[string]int)
		for i := 0; i < n; i++ {
			if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return bi
			}
			if m.row(i)[k].null {
				continue
			}
			for _, key := range keysOf(i, k) {
				if key == "" {
					continue
				}
				id, ok := ids[key]
				if !ok {
					id = len(pass)
					ids[key] = id
					pass = append(pass, nil)
				}
				// A key repeated within one cell joins the block once:
				// rows arrive in ascending order, so i would be last.
				if rows := pass[id]; len(rows) == 0 || rows[len(rows)-1] != i {
					pass[id] = append(rows, i)
				}
			}
		}
		for _, rows := range pass {
			switch {
			case len(rows) > maxBlockRows:
				bi.skipped++
				bi.skippedRows += len(rows)
			case len(rows) > 1:
				for _, r := range rows {
					bi.rowBlocks[r] = append(bi.rowBlocks[r], len(bi.blocks))
				}
				bi.blocks = append(bi.blocks, rows)
			}
		}
	}
	return bi
}

// partners returns a partner function with its own dedup stamp: row
// a's partners are the later rows of its blocks, each once. One per
// shard — the stamp is scratch.
func (bi *blockIndex) partners() partnerFunc {
	stamp := make([]int, len(bi.rowBlocks)) // stamp[b] == a+1: b already a partner of a
	return func(a int, dst []int) []int {
		for _, id := range bi.rowBlocks[a] {
			rows := bi.blocks[id]
			i, _ := slices.BinarySearch(rows, a+1)
			for _, b := range rows[i:] {
				if stamp[b] != a+1 {
					stamp[b] = a + 1
					dst = append(dst, b)
				}
			}
		}
		slices.Sort(dst)
		return dst
	}
}

// blockingKeys is prefix blocking's keysOf: one key per cell, the
// first prefixLen runes of the normalized value. buf is reused across
// cells — buildBlocks consumes the keys before the next call.
func blockingKeys(m *measure, prefixLen int) func(i, k int) []string {
	var buf [1]string
	return func(i, k int) []string {
		buf[0] = runePrefix(m.row(i)[k].runes, prefixLen)
		return buf[:]
	}
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

// qgramKeys is q-gram blocking's keysOf — the dumas candidate scheme
// ported to single-relation detection: every padded q-gram of the
// value's normalized prefix is a blocking key. Unlike plain prefix
// blocking, a typo inside the prefix leaves the value's other grams
// intact, so the pair is still discovered through an agreeing gram.
// Empty (non-null) values yield no keys: their grams would be pure
// padding, herding every empty cell of an attribute into one
// meaningless block.
func qgramKeys(m *measure, q int) func(i, k int) []string {
	return func(i, k int) []string {
		rs := m.row(i)[k].runes
		if len(rs) == 0 {
			return nil
		}
		return strsim.QGrams(runePrefix(rs, qgramPrefixRunes), q)
	}
}

// candidates selects the key-based strategy for cfg (one of Window,
// Blocking and QGrams is set) over the measured relation. It returns a
// constructor of per-shard partner functions and the block index's
// skip counters (zero for Window). Config validation has already
// rejected conflicting settings.
func candidates(ctx context.Context, m *measure, cfg Config) (newPartners func() partnerFunc, skipped, skippedRows int) {
	if cfg.Window > 0 {
		return windowPartners(m.sortKeys(ctx), cfg.Window), 0, 0
	}
	keysOf := qgramKeys(m, cfg.QGrams)
	if cfg.Blocking > 0 {
		keysOf = blockingKeys(m, cfg.Blocking)
	}
	bi := buildBlocks(ctx, m, keysOf)
	return bi.partners, bi.skipped, bi.skippedRows
}
