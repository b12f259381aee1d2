package dupdetect

import (
	"context"
	"slices"
	"strings"

	"hummer/internal/parshard"
)

// Candidate partners for the key-based strategies — sorted
// neighborhood (Config.Window) and prefix blocking (Config.Blocking),
// described in the package doc. Each is a partnerFunc: row a's
// candidate partners, every row b > a that the strategy pairs with a,
// each once and ascending. scoreRows (shard.go) enumerates them row by
// row over the same folded row shards the exhaustive default uses, so
// every strategy scores its pairs in ascending (A, B) order. The
// exhaustive default has no partner function: its partners are all
// later rows.

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
// other in parshard.SortedOrder of keys: row a's partners are the later
// rows among its neighbors in that order. It keeps no scratch, so
// every shard shares one.
func windowPartners(keys []string, window int) func() partnerFunc {
	order, pos := parshard.SortedOrder(keys)
	partners := func(a int, dst []int) []int {
		p := pos[a]
		for q := max(p-window, 0); q <= min(p+window, len(order)-1); q++ {
			if b := order[q]; b > a {
				dst = append(dst, b)
			}
		}
		slices.Sort(dst)
		return dst
	}
	return func() partnerFunc { return partners }
}

// blockIndex is the sparse row↔block graph of prefix blocking: the
// kept blocks of every pass and, per row, the blocks holding it.
type blockIndex struct {
	blocks    [][]int // member rows of each kept block, ascending
	rowBlocks [][]int // per row, the kept blocks it belongs to
	// skipped counts oversized blocks (more than maxBlockRows rows
	// sharing one key) that were not paired.
	skipped int
	// skippedRows is the total membership of those blocks.
	skippedRows int
}

// buildBlocks is multi-pass prefix blocking's block construction: in
// the pass of selected attribute k, rows whose normalized values share
// their first prefixLen runes form a block (NULL and empty values key
// nothing). Oversized blocks (more than maxBlockRows members) carry
// almost no discriminating power and are skipped — counted rather than
// dropped silently — and single-row blocks pair nothing. ctx is polled
// every CancelStride rows of each pass; on cancellation the index is
// partial and the scoring run, which re-checks ctx on entry, discards
// it.
func buildBlocks(ctx context.Context, m *measure, prefixLen int) *blockIndex {
	n := len(m.texts)
	bi := &blockIndex{rowBlocks: make([][]int, n)}
	for k := range m.cols {
		var pass [][]int
		ids := make(map[string]int)
		for i := 0; i < n; i++ {
			if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return bi
			}
			c := &m.row(i)[k]
			if c.null || len(c.runes) == 0 {
				continue
			}
			key := runePrefix(c.runes, prefixLen)
			id, ok := ids[key]
			if !ok {
				id = len(pass)
				ids[key] = id
				pass = append(pass, nil)
			}
			pass[id] = append(pass[id], i)
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

// runePrefix returns the first p runes of rs as a string (the whole
// value when shorter).
func runePrefix(rs []rune, p int) string {
	if len(rs) <= p {
		return string(rs)
	}
	return string(rs[:p])
}

// candidates builds the key-based strategy cfg selects (Window or
// Blocking; DetectContext has rejected both at once) over the measured
// relation. It returns a constructor of per-shard partner functions
// and the block index's skip counters (zero for Window).
func candidates(ctx context.Context, m *measure, cfg Config) (newPartners func() partnerFunc, skipped, skippedRows int) {
	if cfg.Window > 0 {
		return windowPartners(m.sortKeys(ctx), cfg.Window), 0, 0
	}
	bi := buildBlocks(ctx, m, cfg.Blocking)
	return bi.partners, bi.skipped, bi.skippedRows
}
