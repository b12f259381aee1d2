// Package dumas implements the DUMAS duplicate-based schema matching
// algorithm (Bilke & Naumann, ICDE 2005) as used by HumMer's first
// pipeline phase.
//
// The algorithm exploits the presence of duplicates across unaligned
// tables: it first finds a few likely duplicate tuple pairs by treating
// each tuple as a single string and ranking cross-table pairs with
// TFIDF cosine similarity; it then compares each duplicate pair
// field-wise with SoftTFIDF, averages the resulting per-pair similarity
// matrices, computes a maximum-weight bipartite matching over the
// averaged matrix, and prunes correspondences below a threshold,
// yielding 1:1 attribute correspondences.
//
// # Candidate generation
//
// Which cross-relation tuple pairs are scored during duplicate
// discovery is decided by one of two strategies (see candidates.go).
// The default scores term at a time: each left tuple walks its sorted
// terms through an inverted index of the right tuples' term vectors,
// accumulating one similarity per right tuple sharing a token
// (exhaustive recall, since pairs sharing no token score 0). Sorted
// neighborhood over the whole-tuple sort keys (Config.Window > 0)
// instead lists each left tuple's right neighbors in the merged key
// order and scores each pair.
//
// # Parallelism and determinism
//
// Config.Parallelism sets the number of worker goroutines (0 means
// GOMAXPROCS, 1 forces sequential). Each cell is tokenised once per
// match, in one sequential pass that also interns the tokens of both
// relations into term ids (terms.go). The ids are renumbered into the
// terms' sorted string order, so sorting ids sorts terms and every
// float sum runs in the order the string-keyed term vectors of package
// strsim would give. Three phases shard over parshard.RangesContext:
// the tuple term vectors, the candidate scoring by left row, and the
// per-cell averaging of the field-similarity matrix. All similarity
// math runs over sorted term vectors with deterministic float
// accumulation, so the Result — correspondences, duplicates, matrix,
// statistics — is byte-identical at every worker count: parallelism is
// purely a wall-clock knob.
package dumas

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hummer/internal/assign"
	"hummer/internal/obs"
	"hummer/internal/parshard"
	"hummer/internal/relation"
	"hummer/internal/strsim"
	"hummer/internal/value"
)

// Config tunes the matcher. The zero Config is usable: Default fills
// in the paper-faithful settings.
type Config struct {
	// MaxDuplicates is the number k of most-similar tuple pairs used
	// as presumed duplicates for field-wise comparison. DUMAS needs
	// only a handful; default 10.
	MaxDuplicates int
	// MinTupleSim is the minimum whole-tuple TFIDF similarity for a
	// pair to be considered a duplicate at all; default 0.25.
	MinTupleSim float64
	// Threshold prunes attribute correspondences whose averaged
	// field similarity falls below it; default 0.35.
	Threshold float64
	// Window, when positive, switches duplicate discovery from the
	// full-recall token index to the sorted-neighborhood method: left
	// and right tuples are merged into one order by their whole-tuple
	// sort key and only cross-relation tuples within the window are
	// scored. Near-linear cost, trading recall on far-sorting
	// duplicates.
	Window int
	// Parallelism is the number of worker goroutines sharding the
	// precomputation, pair scoring and field-matrix averaging: 0 means
	// GOMAXPROCS, 1 forces the sequential path. The Result is
	// byte-identical at every worker count.
	Parallelism int
}

// Default returns the paper-faithful configuration.
func Default() Config {
	return Config{MaxDuplicates: 10, MinTupleSim: 0.25, Threshold: 0.35}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.MaxDuplicates <= 0 {
		c.MaxDuplicates = d.MaxDuplicates
	}
	if c.MinTupleSim <= 0 {
		c.MinTupleSim = d.MinTupleSim
	}
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	return c
}

// TuplePair is one presumed duplicate found during the discovery step.
type TuplePair struct {
	LeftRow, RightRow int
	Sim               float64
}

// Correspondence is one matched attribute pair between two relations.
type Correspondence struct {
	LeftCol, RightCol string
	LeftIdx, RightIdx int
	Score             float64
}

// Stats reports the work the discovery step performed.
type Stats struct {
	// CandidatePairs is the number of cross-relation tuple pairs the
	// candidate strategy proposed for scoring.
	CandidatePairs int
	// Scored is how many of them reached MinTupleSim.
	Scored int
}

// Result carries the output of matching two relations.
type Result struct {
	// Correspondences are the pruned 1:1 attribute matches, ordered
	// by descending score.
	Correspondences []Correspondence
	// Duplicates are the tuple pairs the matching was derived from.
	Duplicates []TuplePair
	// Matrix is the averaged field-similarity matrix
	// (left attrs × right attrs), exposed for the demo's
	// "adjust matching" wizard step and for diagnostics.
	Matrix [][]float64
	// Stats reports candidate counts from duplicate discovery.
	Stats Stats
}

// MatchContext derives attribute correspondences between two unaligned
// relations. It returns an error when either relation is empty:
// instance-based matching has nothing to work with then.
//
// ctx is honored throughout: the per-tuple precomputation polls it
// between row shards, the scoring between left rows and the
// field-matrix averaging between cells, so a cancelled match returns
// promptly with ctx's error, all worker goroutines joined and no
// partial result. A match that completes is byte-identical to an
// uncancelled run.
func MatchContext(ctx context.Context, left, right *relation.Relation, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if left.Len() == 0 || right.Len() == 0 {
		return nil, fmt.Errorf("dumas: relation %q or %q is empty; instance-based matching needs rows",
			left.Name(), right.Name())
	}
	p, err := prepare(ctx, left, right, cfg)
	if err != nil {
		return nil, err
	}
	dups, stats, err := p.discover(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if len(dups) == 0 {
		return &Result{Stats: stats}, nil
	}
	_, msp := obs.StartSpan(ctx, "match.matrix")
	defer msp.End()
	msp.SetInt("pairs", len(dups))
	matrix, err := p.averagedFieldMatrix(ctx, dups)
	if err != nil {
		return nil, err
	}
	msp.End()
	pairs := assign.MaxWeight(matrix)
	var corrs []Correspondence
	for _, p := range pairs {
		if p.Weight < cfg.Threshold {
			continue
		}
		corrs = append(corrs, Correspondence{
			LeftCol:  left.Schema().Col(p.Row).Name,
			RightCol: right.Schema().Col(p.Col).Name,
			LeftIdx:  p.Row,
			RightIdx: p.Col,
			Score:    p.Weight,
		})
	}
	sort.Slice(corrs, func(i, j int) bool {
		if corrs[i].Score != corrs[j].Score {
			return corrs[i].Score > corrs[j].Score
		}
		return corrs[i].LeftIdx < corrs[j].LeftIdx
	})
	return &Result{Correspondences: corrs, Duplicates: dups, Matrix: matrix, Stats: stats}, nil
}

// tupleText renders a whole tuple as one string, DUMAS's
// "tuple as a single document" view.
func tupleText(row relation.Row) string {
	parts := make([]string, 0, len(row))
	for _, v := range row {
		if !v.IsNull() {
			parts = append(parts, v.Text())
		}
	}
	return strings.Join(parts, " ")
}

// precomputeMinRows is the smallest input the per-tuple precomputation
// and the default strategy's row-sharded scoring bother to shard;
// below it goroutine startup dominates.
const precomputeMinRows = 128

// pairChunk is the cross-product size at or below which the window
// strategy scores on one worker.
const pairChunk = parshard.DefaultChunk

// scoreShard is one shard's scoring output.
type scoreShard struct {
	stats Stats
	pairs []TuplePair
}

// findDuplicates is the whole discovery step for one pair of
// relations: prepare, then discover.
func findDuplicates(ctx context.Context, left, right *relation.Relation, cfg Config) ([]TuplePair, Stats, error) {
	p, err := prepare(ctx, left, right, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.discover(ctx, cfg)
}

// discover scores candidate tuple pairs by left-row shards (term at a
// time by default, the sorted neighborhood under Window) and makes
// the deterministic ranked 1:1 top-k selection: the top MaxDuplicates
// pairs at or above MinTupleSim.
//
// Each left and right tuple participates in at most one returned pair:
// a real-world entity should contribute one aligned observation, and
// reusing a tuple would bias the averaged field matrix toward it.
//
// MaxDuplicates and MinTupleSim are honored exactly as given (no
// defaults are filled in, so MinTupleSim = 0 keeps every candidate).
// ctx is polled during scoring; on cancellation the partial state is
// discarded and ctx's error returned.
func (p *prepared) discover(ctx context.Context, cfg Config) ([]TuplePair, Stats, error) {
	nl, nr := p.left.rel.Len(), p.right.rel.Len()
	_, ssp := obs.StartSpan(ctx, "match.score")
	defer ssp.End()
	minSim := cfg.MinTupleSim
	var out scoreShard
	var scoreWorkers int
	var err error
	if cfg.Window == 0 {
		scoreWorkers = min(p.preWorkers, nl)
		out, err = scorePostings(ctx, scoreWorkers, p.left.vecs, p.right.vecs, len(p.terms), minSim)
	} else {
		// Sort keys rendered from the tuple texts, left rows then right
		// rows. The cancellation error is deliberately dropped: the
		// scoring run below re-checks ctx on entry, so a cancel here
		// still aborts promptly — the poll only keeps this pass from
		// running to completion first.
		keys := make([]string, nl+nr)
		_ = parshard.RangesContext(ctx, p.preWorkers, len(keys), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
					return
				}
				rel, r := p.left.rel, i
				if i >= nl {
					rel, r = p.right.rel, i-nl
				}
				keys[i] = sortKey(tupleText(rel.Row(r)))
			}
		})
		// Tiny inputs stay on one worker; more would only add overhead.
		scoreWorkers = min(p.workers, nl)
		if nl*nr <= pairChunk {
			scoreWorkers = 1
		}
		out, err = scoreWindow(ctx, scoreWorkers, p.left.vecs, p.right.vecs, keys, cfg.Window, minSim)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	ssp.SetInt("workers", scoreWorkers)
	ssp.SetInt("candidates", out.stats.CandidatePairs)
	ssp.SetInt("scored", out.stats.Scored)
	ssp.End()

	// Rank by similarity (ties broken by row ids: a total order, so
	// the selection is deterministic) and pick the top pairs 1:1.
	pairs := out.pairs
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Sim != pairs[j].Sim {
			return pairs[i].Sim > pairs[j].Sim
		}
		if pairs[i].LeftRow != pairs[j].LeftRow {
			return pairs[i].LeftRow < pairs[j].LeftRow
		}
		return pairs[i].RightRow < pairs[j].RightRow
	})
	usedL := make(map[int]bool, cfg.MaxDuplicates)
	usedR := make(map[int]bool, cfg.MaxDuplicates)
	var top []TuplePair
	for _, p := range pairs {
		if len(top) >= cfg.MaxDuplicates {
			break
		}
		if usedL[p.LeftRow] || usedR[p.RightRow] {
			continue
		}
		usedL[p.LeftRow] = true
		usedR[p.RightRow] = true
		top = append(top, p)
	}
	return top, out.stats, nil
}

// averagedFieldMatrix compares each duplicate pair field-wise with
// SoftTFIDF and averages the matrices, as in DUMAS. SoftTFIDF's IDF
// weights come from the column corpus, one document per non-NULL cell
// of the two relations, so that IDF reflects how identifying a token
// is within the data. The nl×nr cells of the averaged matrix are
// computed across the worker pool, each worker owning a strsim.Scratch
// for the inner Jaro-Winkler comparisons. Each cell accumulates its
// duplicate-pair sum in pair order, so the matrix is byte-identical at
// every worker count.
func (p *prepared) averagedFieldMatrix(ctx context.Context, dups []TuplePair) ([][]float64, error) {
	left, right := p.left.rel, p.right.rel
	nl, nr := p.left.width, p.right.width

	// Term vectors of every cell participating in a duplicate pair
	// (at most MaxDuplicates rows per side — cheap, and it keeps the
	// expensive SoftTFIDF inner loop allocation-free).
	ltv := make([][]strsim.TermVec, len(dups))
	rtv := make([][]strsim.TermVec, len(dups))
	for d, dp := range dups {
		ltv[d] = make([]strsim.TermVec, nl)
		rtv[d] = make([]strsim.TermVec, nr)
		for i, v := range left.Row(dp.LeftRow) {
			if !v.IsNull() {
				ltv[d][i] = p.cellVec(&p.left, dp.LeftRow*nl+i)
			}
		}
		for j, v := range right.Row(dp.RightRow) {
			if !v.IsNull() {
				rtv[d][j] = p.cellVec(&p.right, dp.RightRow*nr+j)
			}
		}
	}

	avg := make([][]float64, nl)
	for i := range avg {
		avg[i] = make([]float64, nr)
	}
	// One matrix cell per work item: cells are independent, and the
	// per-cell sum runs over dups in pair order regardless of which
	// worker owns the cell.
	err := parshard.RangesContext(ctx, p.workers, nl*nr, func(_, lo, hi int) {
		var sc strsim.Scratch
		for cell := lo; cell < hi; cell++ {
			if cell%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return
			}
			i, j := cell/nr, cell%nr
			var sum float64
			cnt := 0
			for d, dp := range dups {
				lv, rv := left.Row(dp.LeftRow)[i], right.Row(dp.RightRow)[j]
				// NULL on either side gives no evidence for or
				// against the correspondence; skip the cell.
				if lv.IsNull() || rv.IsNull() {
					continue
				}
				sum += fieldSim(&sc, lv, rv, ltv[d][i], rtv[d][j])
				cnt++
			}
			if cnt > 0 {
				avg[i][j] = sum / float64(cnt)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return avg, nil
}

// fieldSim compares two non-null field values: numerics by relative
// distance, everything else by SoftTFIDF over the values' prebuilt
// term vectors.
func fieldSim(sc *strsim.Scratch, a, b value.Value, va, vb strsim.TermVec) float64 {
	if af, ok := a.AsFloat(); ok {
		if bf, ok := b.AsFloat(); ok {
			return strsim.NumericSim(af, bf)
		}
	}
	return strsim.SoftTFIDFTermVecs(sc, va, vb)
}

// NaiveMatch is the D1 ablation baseline: match columns directly by
// the cosine similarity of their whole-column token distributions,
// without discovering duplicates first. It is cheaper but confuses
// columns that share vocabulary (e.g. two different name columns).
func NaiveMatch(left, right *relation.Relation, threshold float64) *Result {
	nl, nr := left.Schema().Len(), right.Schema().Len()
	corpus := strsim.NewCorpus()
	colText := func(rel *relation.Relation, col int) []string {
		var tokens []string
		for i := 0; i < rel.Len(); i++ {
			v := rel.Row(i)[col]
			if !v.IsNull() {
				tokens = strsim.AppendTokens(tokens, v.Text())
			}
		}
		return tokens
	}
	leftCols := make([][]string, nl)
	for i := range leftCols {
		leftCols[i] = colText(left, i)
		corpus.AddDoc(leftCols[i])
	}
	rightCols := make([][]string, nr)
	for j := range rightCols {
		rightCols[j] = colText(right, j)
		corpus.AddDoc(rightCols[j])
	}
	rightVecs := make([]strsim.TermVec, nr)
	for j := range rightVecs {
		rightVecs[j] = corpus.TermVec(rightCols[j])
	}
	matrix := make([][]float64, nl)
	for i := range matrix {
		matrix[i] = make([]float64, nr)
		vi := corpus.TermVec(leftCols[i])
		for j := range matrix[i] {
			matrix[i][j] = strsim.DotTermVecs(vi, rightVecs[j])
		}
	}
	pairs := assign.MaxWeight(matrix)
	var corrs []Correspondence
	for _, p := range pairs {
		if p.Weight < threshold {
			continue
		}
		corrs = append(corrs, Correspondence{
			LeftCol:  left.Schema().Col(p.Row).Name,
			RightCol: right.Schema().Col(p.Col).Name,
			LeftIdx:  p.Row,
			RightIdx: p.Col,
			Score:    p.Weight,
		})
	}
	sort.Slice(corrs, func(i, j int) bool {
		if corrs[i].Score != corrs[j].Score {
			return corrs[i].Score > corrs[j].Score
		}
		return corrs[i].LeftIdx < corrs[j].LeftIdx
	})
	return &Result{Correspondences: corrs, Matrix: matrix}
}
