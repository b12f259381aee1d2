// Package dupdetect implements HumMer's duplicate-detection phase: the
// DogmatiX algorithm (Weis & Naumann, SIGMOD 2005) mapped from XML to
// the relational world, as §2.3 of the demo paper describes.
//
// Tuples of one (already schema-aligned) relation are compared
// pairwise with a similarity measure that (i) distinguishes matched
// from unmatched attributes, (ii) compares matched attribute values
// with edit and numeric distance, (iii) weighs each data item by its
// identifying power (a soft version of IDF), and (iv) lets
// contradictory data reduce similarity while missing data has no
// influence. A cheap upper bound filters pairs before the expensive
// measure runs, and is itself two-staged: an O(1) rune-presence-mask
// bound rejects most attribute pairs before the O(l) rune-histogram
// bound runs. The mask bound is never below the histogram bound, so
// the filter's result is bit-identical to running the histogram bound
// alone. Pairs above a threshold are duplicates; the transitive
// closure over duplicate pairs forms clusters, and an objectID column
// identifying each cluster is appended to the relation.
//
// # Candidate generation
//
// Which pairs are compared is decided by one of three strategies:
//
//   - exhaustive (the default): all n·(n-1)/2 pairs — the paper's
//     quadratic loop, full recall.
//   - sorted neighborhood (Config.Window > 0): rows are sorted by a
//     key concatenated from the selected attributes and only rows
//     within the window are compared — ~n·w comparisons, trading
//     recall on far-sorting duplicates for near-linear cost.
//   - blocking (Config.Blocking > 0): multi-pass prefix blocking, one
//     pass per selected attribute; rows sharing the first Blocking
//     runes of an attribute's normalized value are compared. Unlike
//     the single sorted key, a pair only needs to agree on a prefix of
//     *some* attribute to become a candidate.
//
// # Parallelism and determinism
//
// Config.Parallelism sets the number of worker goroutines scoring
// candidate pairs (0 means GOMAXPROCS, 1 forces sequential). The
// similarity of two rows depends only on their selected cells, so the
// exhaustive strategy folds over the t distinct detection tuples:
// each tuple pair is scored once and stands for all its row pairs.
// The key-based strategies fold over rows. Every strategy scores each
// unit's partners once, in the shard that owns the unit: unit j is
// folded with unit t−1−j and each worker gets a contiguous range of the
// ⌈t/2⌉ fold indices; ctx is polled once per unit. Outputs fold back
// in ascending unit order and the row pairs are sorted, so the Result —
// clusters, duplicate and borderline pair order, statistics — is
// byte-identical across all worker counts: parallelism is purely a
// wall-clock knob.
package dupdetect

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"hummer/internal/obs"
	"hummer/internal/parshard"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/strsim"
	"hummer/internal/value"
)

// ObjectIDColumn is the name of the cluster-identifier column the
// detector appends, as in the paper.
const ObjectIDColumn = "objectID"

// SourceIDColumn is the provenance column added by the transformation
// phase; the attribute-selection heuristics always exclude it.
const SourceIDColumn = "sourceID"

// matchCutoff separates "matched but similar" from "matched but
// contradictory" attribute values (criterion iv).
const matchCutoff = 0.75

// Config tunes the detector. The zero Config is usable; Default fills
// in paper-faithful settings.
type Config struct {
	// Threshold is the tuple-similarity duplicate threshold;
	// default 0.8.
	Threshold float64
	// Attributes overrides the heuristic attribute selection ("adjust
	// duplicate definition" in the wizard). Empty means: use the
	// heuristics.
	Attributes []string
	// DisableFilter turns the upper-bound filter off (ablation D4).
	DisableFilter bool
	// NoContradictionPenalty makes contradictory values behave like
	// missing values (ablation D3).
	NoContradictionPenalty bool
	// Window, when positive, switches candidate generation from the
	// exhaustive O(n²) pairing to the sorted-neighborhood method:
	// rows are sorted by a sorting key concatenated from the selected
	// attributes, and only rows within the window are compared. This
	// trades a little recall (duplicates whose keys sort far apart)
	// for near-linear comparison cost — the standard scale-up for
	// duplicate detection. Mutually exclusive with Blocking.
	Window int
	// Blocking, when positive, switches candidate generation to
	// multi-pass prefix blocking: for each selected attribute, rows
	// sharing the first Blocking runes of that attribute's normalized
	// value form a block, and only rows sharing a block are compared.
	// Recall survives a dirty attribute as long as some other selected
	// attribute still agrees on its prefix. Mutually exclusive with
	// Window.
	Blocking int
	// Parallelism is the number of worker goroutines that score
	// candidate pairs: 0 means GOMAXPROCS, 1 forces the sequential
	// path. The Result is byte-identical at every worker count.
	Parallelism int
}

// Default returns the paper-faithful configuration.
func Default() Config { return Config{Threshold: 0.8} }

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = Default().Threshold
	}
	return c
}

// ScoredPair is one compared tuple pair with its similarity.
type ScoredPair struct {
	A, B int
	Sim  float64
}

// Stats reports the work the detector performed — E6 measures the
// filter's effect through these numbers.
type Stats struct {
	// CandidatePairs is the number of pairs considered (n·(n-1)/2 for
	// the exhaustive strategy, fewer under Window or Blocking).
	CandidatePairs int
	// FilteredOut is how many pairs the upper bound discarded before
	// the expensive measure ran. Like Compared, it counts row pairs,
	// even where one tuple pair's score stood for several.
	FilteredOut int
	// Compared is how many pairs ran the full similarity measure.
	Compared int
	// SkippedBlocks counts the oversized candidate blocks the Blocking
	// strategy refused to pair: more than maxBlockRows rows shared one
	// key, so the key carried no discriminating power. Nonzero values
	// mean recall may have been lost to a near-constant attribute —
	// pick a longer prefix or a different attribute selection.
	SkippedBlocks int
	// SkippedBlockRows is the total membership of those skipped blocks
	// (rows counted once per skipped block they appear in).
	SkippedBlockRows int
}

// Result is the detector's output.
type Result struct {
	// ObjectIDs assigns each input row its cluster id, 0-based,
	// numbered in order of each cluster's first row.
	ObjectIDs []int
	// Clusters lists row indices per cluster, each sorted ascending.
	Clusters [][]int
	// Duplicates are the pairs scored at or above the threshold, in
	// ascending (A, B) order under every candidate strategy.
	Duplicates []ScoredPair
	// Borderline are pairs in [0.9·threshold, threshold), in ascending
	// (A, B) order: the demo GUI shows these as "unsure cases" for the
	// user to decide.
	Borderline []ScoredPair
	// SelectedAttributes are the attributes the similarity used.
	SelectedAttributes []string
	// Stats reports comparison counts.
	Stats Stats
}

// DetectContext finds duplicate clusters in rel, honoring ctx: the
// measure precomputation and the key-based candidate builds poll it
// every CancelStride rows and the pair scoring once per fold unit (a
// distinct tuple, or a row under Window and Blocking), so a
// cancelled detection returns promptly with ctx's error, all worker
// goroutines joined and no partial result. A detection that completes
// is byte-identical to an uncancelled run.
func DetectContext(ctx context.Context, rel *relation.Relation, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Window > 0 && cfg.Blocking > 0 {
		return nil, fmt.Errorf("dupdetect: Window and Blocking are mutually exclusive candidate strategies")
	}
	attrs := cfg.Attributes
	if len(attrs) == 0 {
		attrs = SelectAttributes(rel)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dupdetect: no usable attributes in %s", rel.Schema())
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := rel.Schema().Lookup(a)
		if !ok {
			return nil, fmt.Errorf("dupdetect: no attribute %q in %s", a, rel.Schema())
		}
		cols[i] = j
	}

	_, csp := obs.StartSpan(ctx, "detect.corpus")
	defer csp.End()
	csp.SetInt("rows", rel.Len())
	m, err := newMeasure(ctx, rel, cols, cfg)
	if err != nil {
		return nil, err
	}
	csp.End()

	_, ssp := obs.StartSpan(ctx, "detect.score")
	defer ssp.End()
	units := m.tuples.len()
	var newPartners func() partnerFunc
	var skipped, skippedRows int
	if cfg.Window > 0 || cfg.Blocking > 0 {
		units = rel.Len()
		newPartners, skipped, skippedRows = candidates(ctx, m, cfg)
	}
	workers := min(scoreWorkers(cfg.Parallelism, rel.Len()), (units+1)/2)
	out, err := scoreRows(ctx, m, cfg, workers, newPartners)
	if err != nil {
		return nil, err
	}
	out.stats.SkippedBlocks = skipped
	out.stats.SkippedBlockRows = skippedRows
	ssp.SetInt("tuples", m.tuples.len())
	ssp.SetInt("workers", workers)
	ssp.SetInt("candidates", out.stats.CandidatePairs)
	ssp.SetInt("compared", out.stats.Compared)
	ssp.End()

	res := &Result{
		SelectedAttributes: attrs,
		Duplicates:         out.dups,
		Borderline:         out.borderline,
		Stats:              out.stats,
	}
	_, usp := obs.StartSpan(ctx, "detect.cluster")
	defer usp.End()
	dsu := newUnionFind(rel.Len())
	for _, p := range out.dups {
		dsu.union(p.A, p.B)
	}
	res.ObjectIDs, res.Clusters = dsu.clusters()
	usp.SetInt("clusters", len(res.Clusters))
	usp.End()
	return res, nil
}

// AppendObjectID returns a copy of rel extended with the objectID
// column from a detection result.
func AppendObjectID(rel *relation.Relation, res *Result) (*relation.Relation, error) {
	if len(res.ObjectIDs) != rel.Len() {
		return nil, fmt.Errorf("dupdetect: result covers %d rows, relation has %d",
			len(res.ObjectIDs), rel.Len())
	}
	s, err := rel.Schema().Append(schema.Column{Name: ObjectIDColumn, Type: value.KindInt})
	if err != nil {
		return nil, err
	}
	out := relation.New(rel.Name(), s)
	for i := 0; i < rel.Len(); i++ {
		if err := out.Append(rel.Row(i).With(value.NewInt(int64(res.ObjectIDs[i])))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- Attribute selection heuristics -------------------------------------

// attrScore carries the heuristic sub-scores for one attribute; the
// demo GUI shows these so users can understand and adjust the
// selection.
type attrScore struct {
	Name string
	// Coverage is the non-null fraction (criterion: usable).
	Coverage float64
	// Distinctness is distinct-values / non-null-values (criterion:
	// likely to distinguish duplicates from non-duplicates).
	Distinctness float64
	// Usable reports whether the type works with the similarity
	// measure (strings and numerics do; booleans carry ~1 bit).
	Usable bool
	Score  float64
}

// SelectAttributes applies the paper's heuristics to pick
// "interesting" attributes: related to the object (all columns of the
// relation are), usable by the similarity measure, and likely to
// distinguish duplicates from non-duplicates. Bookkeeping columns
// (sourceID, objectID) are always excluded. Selection is inclusive —
// the similarity measure weighs attributes by identifying power, so
// weak attributes are only excluded when they carry almost no signal
// (constant or near-constant columns, booleans, all-null columns).
func SelectAttributes(rel *relation.Relation) []string {
	var out []string
	for _, sc := range ScoreAttributes(rel) {
		if sc.Usable && sc.Score >= 0.02 {
			out = append(out, sc.Name)
		}
	}
	return out
}

// ScoreAttributes computes the heuristic scores for every attribute.
func ScoreAttributes(rel *relation.Relation) []attrScore {
	s := rel.Schema()
	var scores []attrScore
	for j := 0; j < s.Len(); j++ {
		name := s.Col(j).Name
		if strings.EqualFold(name, SourceIDColumn) || strings.EqualFold(name, ObjectIDColumn) {
			continue
		}
		nonNull := 0
		distinct := map[uint64]bool{}
		usable := true
		for i := 0; i < rel.Len(); i++ {
			v := rel.Row(i)[j]
			if v.IsNull() {
				continue
			}
			nonNull++
			distinct[v.Hash()] = true
			if v.Kind() == value.KindBool {
				usable = false // a bit cannot distinguish entities
			}
		}
		sc := attrScore{Name: name, Usable: usable}
		if rel.Len() > 0 {
			sc.Coverage = float64(nonNull) / float64(rel.Len())
		}
		if nonNull > 0 {
			sc.Distinctness = float64(len(distinct)) / float64(nonNull)
		}
		if nonNull == 0 {
			sc.Usable = false
		}
		// A constant column across a non-trivial table cannot
		// distinguish entities. Tiny tables are exempt: with a
		// handful of rows, agreement on the only attribute there is
		// may be exactly the duplicate evidence.
		if rel.Len() >= 10 && len(distinct) <= 1 {
			sc.Usable = false
		}
		sc.Score = sc.Coverage * sc.Distinctness
		scores = append(scores, sc)
	}
	return scores
}

// --- The similarity measure ----------------------------------------------

// measure holds the precomputed comparison state of each distinct
// detection tuple: the NULL-ness, lower-cased text and numeric image
// of a row's selected cells, all that its scores depend on. Everything
// derivable from a cell — rune form, rune-presence mask, sorted rune
// counts, identifying power — is computed once per tuple here, so the
// per-pair hot path performs no text normalization and no allocation.
type measure struct {
	cols []int
	cfg  Config
	// texts[i][k] is the lowercased text of row i, selected attr k —
	// the shared normalized-text cache. Rows of one tuple share one
	// slice.
	texts [][]string
	// tupleOf[i] is row i's tuple; tuples are numbered by first row.
	tupleOf []int
	// tuples lists each tuple's rows: the exhaustive fold's units.
	tuples foldUnits
	// cells[u*len(cols)+k] is the comparison state of tuple u, selected
	// attr k, in one flat tuple-major array: a pair walks two
	// contiguous runs of len(cols) cells (see row).
	cells []cell
	// ranges[k] is the numeric value spread (max-min) of attribute k,
	// used to normalize numeric distance: two years 30 apart are very
	// different entities even though their relative difference is
	// small.
	ranges []float64
	// avgRowWeight is the mean total attribute weight of a row — the
	// typical amount of evidence available. Pairs compared on much
	// less (because values are missing) get their similarity scaled
	// down: matching on one weak attribute alone must not clear the
	// threshold.
	avgRowWeight float64
}

// cell is the comparison state of one value; a NULL sets null and
// leaves the rest zero. runes spare the edit kernel UTF-8 decoding;
// mask (see runeMask) and the sorted rune histogram counts back the
// two stages of upperBound; weight is the identifying power (soft
// IDF); num is the numeric image when isNum.
type cell struct {
	runes  []rune
	counts runeCounts
	mask   uint64
	weight float64
	num    float64
	isNum  bool
	null   bool
}

// row returns the cells of row i's tuple, one per selected attribute.
func (m *measure) row(i int) []cell {
	k, u := len(m.cols), m.tupleOf[i]
	return m.cells[u*k : (u+1)*k : (u+1)*k]
}

// runeCount is one entry of a sorted rune histogram.
type runeCount struct {
	r rune
	n int
}

// runeCounts is a rune histogram sorted by rune, for allocation-free
// multiset intersection.
type runeCounts []runeCount

// evidenceFraction is the fraction of the average row weight a pair
// must actually compare to earn full confidence.
const evidenceFraction = 0.3

// measureShardMinRows is the smallest number of distinct tuples the
// measure precomputation bothers to shard: below it, goroutine startup
// would cost more than the normalization work itself.
const measureShardMinRows = 128

// colAgg is one attribute's cross-row statistics: corpus, distinct-
// value set, non-null count, numeric bounds. Every row folds in, so
// they count multiplicities.
type colAgg struct {
	corpus   *strsim.Corpus
	distinct map[uint64]bool
	nonNull  int
	min, max float64
	haveNum  bool
}

// addNum widens the numeric bounds to cover f.
func (a *colAgg) addNum(f float64) {
	if !a.haveNum || f < a.min {
		a.min = f
	}
	if !a.haveNum || f > a.max {
		a.max = f
	}
	a.haveNum = true
}

// newMeasure precomputes the per-tuple comparison state. ctx is polled
// every CancelStride rows and tuples; on cancellation the half-built
// measure is discarded and ctx's error returned.
func newMeasure(ctx context.Context, rel *relation.Relation, cols []int, cfg Config) (*measure, error) {
	n, nc := rel.Len(), len(cols)
	m := &measure{cols: cols, cfg: cfg, texts: make([][]string, n), tupleOf: make([]int, n), ranges: make([]float64, nc)}

	// Pass 1, sequential: key each row by its cells' comparison state,
	// numbering tuples by first row; keep and tokenize a new tuple's
	// texts. Every row folds into the cross-row statistics: identifying-
	// power corpora ("soft version of IDF", criterion iii), distinct-
	// value sets, numeric bounds.
	aggs := make([]colAgg, nc)
	for k := range aggs {
		aggs[k] = colAgg{corpus: strsim.NewCorpus(), distinct: map[uint64]bool{}}
	}
	ids := map[string]int{}
	var key []byte
	var first []int    // each tuple's first row
	var texts []string // texts[u*nc+k]: tuple u's lowercased text of attr k
	var toks []string  // every tuple cell's tokens, back to back
	tokEnd := []int{0} // tuple cell c's tokens are toks[tokEnd[c]:tokEnd[c+1]]
	lower := make([]string, nc)
	for i := 0; i < n; i++ {
		if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
			return nil, ctx.Err()
		}
		vals := rel.Row(i)
		key = key[:0]
		for k, j := range cols {
			v := vals[j]
			if v.IsNull() {
				lower[k] = ""
				key = append(key, 0)
				continue
			}
			// Length-prefixed text, then the numeric image: no two
			// distinct cell states share a key.
			lower[k] = strings.ToLower(v.Text())
			key = binary.AppendUvarint(append(key, 1), uint64(len(lower[k])))
			key = append(key, lower[k]...)
			if f, ok := v.AsFloat(); ok {
				key = binary.LittleEndian.AppendUint64(append(key, 1), math.Float64bits(f))
				aggs[k].addNum(f)
			} else {
				key = append(key, 0)
			}
			aggs[k].distinct[v.Hash()] = true
			aggs[k].nonNull++
		}
		u, ok := ids[string(key)]
		if !ok {
			u = len(first)
			ids[string(key)] = u
			first = append(first, i)
			texts = append(texts, lower...)
			for _, txt := range lower {
				toks = strsim.AppendTokens(toks, txt)
				tokEnd = append(tokEnd, len(toks))
			}
		}
		m.tupleOf[i] = u
		for k, j := range cols {
			if c := u*nc + k; !vals[j].IsNull() {
				aggs[k].corpus.AddDoc(toks[tokEnd[c]:tokEnd[c+1]])
			}
		}
	}
	t := len(first)
	m.tuples = groupRows(m.tupleOf, t)
	for i, u := range m.tupleOf {
		m.texts[i] = texts[u*nc : (u+1)*nc : (u+1)*nc]
	}
	distinctness := make([]float64, nc)
	for k := range aggs {
		if aggs[k].haveNum {
			m.ranges[k] = aggs[k].max - aggs[k].min
		}
		if aggs[k].nonNull > 0 {
			distinctness[k] = float64(len(aggs[k].distinct)) / float64(aggs[k].nonNull)
		}
	}

	// Pass 2, tuple-sharded: weights need the complete corpora and
	// distinctness, read-only now; each cell is written by exactly one
	// shard, so the measure is byte-identical at every worker count.
	workers := parshard.Workers(cfg.Parallelism)
	if t < measureShardMinRows {
		workers = 1
	}
	m.cells = make([]cell, t*nc)
	err := parshard.RangesContext(ctx, workers, t, func(_, lo, hi int) {
		var sortBuf []rune
		for u := lo; u < hi; u++ {
			if u%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return
			}
			vals := rel.Row(first[u])
			for k, j := range cols {
				c, v := u*nc+k, vals[j]
				x := &m.cells[c]
				if v.IsNull() {
					x.null = true
					continue
				}
				x.runes = []rune(texts[c])
				x.mask = runeMask(x.runes)
				x.counts, sortBuf = countRunes(x.runes, sortBuf)
				if f, ok := v.AsFloat(); ok {
					x.num, x.isNum = f, true
				}
				x.weight = identifyingPower(aggs[k].corpus, toks[tokEnd[c]:tokEnd[c+1]]) *
					(0.25 + 0.75*distinctness[k])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if n > 0 {
		var sum float64
		for i := range n {
			for _, x := range m.row(i) {
				sum += x.weight // zero for NULL cells
			}
		}
		m.avgRowWeight = sum / float64(n)
	}
	return m, nil
}

// countRunes builds the sorted rune histogram of rs, reusing sortBuf
// as sorting scratch (returned for the next call).
func countRunes(rs []rune, sortBuf []rune) (runeCounts, []rune) {
	if len(rs) == 0 {
		return nil, sortBuf
	}
	sortBuf = append(sortBuf[:0], rs...)
	slices.Sort(sortBuf)
	out := make(runeCounts, 0, len(sortBuf))
	for _, r := range sortBuf {
		if len(out) > 0 && out[len(out)-1].r == r {
			out[len(out)-1].n++
		} else {
			out = append(out, runeCount{r: r, n: 1})
		}
	}
	return out, sortBuf
}

// identifyingPower is the mean soft IDF of a value's tokens — rare
// values identify entities, frequent values do not.
func identifyingPower(c *strsim.Corpus, tokens []string) float64 {
	if len(tokens) == 0 {
		return 0.5
	}
	var sum float64
	for _, t := range tokens {
		sum += c.SoftIDF(t)
	}
	return sum / float64(len(tokens))
}

// similarity is the full measure over the selected attributes:
//
//	sim(a,b) = Σ_matched w·s / (Σ_matched w + Σ_contradicting w)
//
// where an attribute is "matched" when both values are non-null and
// their value similarity s reaches matchCutoff, "contradicting" when
// both are non-null but dissimilar, and skipped entirely when either
// is NULL (missing data has no influence, criterion iv). The weight w
// is the mean identifying power of the two values. sc provides the
// caller-owned scratch buffers for the edit-distance kernel.
func (m *measure) similarity(a, b int, sc *strsim.Scratch) float64 {
	ra, rb := m.row(a), m.row(b)
	rb = rb[:len(ra)]
	var num, den, evidence float64
	for k := range ra {
		x, y := &ra[k], &rb[k]
		if x.null || y.null {
			continue
		}
		s := m.valueSim(x, y, k, sc)
		w := (x.weight + y.weight) / 2
		evidence += w
		if s >= matchCutoff {
			num += w * s
			den += w
		} else if !m.cfg.NoContradictionPenalty {
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den * m.evidenceFactor(evidence)
}

// evidenceFactor scales a pair's similarity by how much evidence was
// actually compared relative to a typical row: a pair sharing only one
// weak attribute (everything else missing) cannot be confidently
// called a duplicate, while missing data otherwise keeps having no
// influence (criterion iv).
func (m *measure) evidenceFactor(evidence float64) float64 {
	need := evidenceFraction * m.avgRowWeight
	if need <= 0 || evidence >= need {
		return 1
	}
	return evidence / need
}

// valueSim compares two non-null cells of attribute k: numeric
// distance when both are numeric, edit similarity otherwise
// (criterion ii). The edit similarity is threshold-bounded at
// matchCutoff: values whose similarity cannot reach the cutoff only
// ever act as contradictions, so the dynamic program abandons early
// and returns a canonical below-cutoff value.
func (m *measure) valueSim(x, y *cell, k int, sc *strsim.Scratch) float64 {
	if x.isNum && y.isNum {
		return m.numericSim(x.num, y.num, k)
	}
	return sc.LevenshteinSimBoundedRunes(x.runes, y.runes, matchCutoff)
}

// numericSim compares two numeric images x and y of attribute k.
func (m *measure) numericSim(x, y float64, k int) float64 {
	if x == y {
		return 1
	}
	if m.ranges[k] <= 0 {
		return 0
	}
	d := (x - y) / m.ranges[k]
	if d < 0 {
		d = -d
	}
	if d > 1 {
		return 0
	}
	// The curve is sharpened so that only values within a few percent
	// of the attribute's spread count as matches (measurement noise),
	// while moderately different values — which are common between
	// distinct entities of a dense numeric domain — read as
	// contradictions.
	s := 1 - d
	return s * s * s * s
}

// upperBound computes a cheap true upper bound of similarity(a,b):
// numeric similarity is computed exactly (cheap); edit similarity is
// bounded by the rune-multiset intersection, since every edit
// operation fixes at most one character, so
// Levenshtein(x,y) ≥ max(|x|,|y|) − |multiset(x) ∩ multiset(y)| and
// hence LevenshteinSim(x,y) ≤ common/max. Attributes whose bound falls
// below matchCutoff can at best contradict, which only lowers the
// total, so the bound assumes matched attributes score their bound and
// contradicting attributes do not exist.
//
// The intersection is bounded in two stages. First maskCommon, O(1)
// from the rune-presence masks: if even it over max falls below
// matchCutoff, the histogram bound would too (maskCommon ≥ common),
// and the attribute is skipped exactly as a histogram-rejected one
// would be — its evidence is already counted. Only attributes that
// pass pay for editSimBound's O(l) histogram merge, so the result is
// bit-identical to running editSimBound for every attribute.
func (m *measure) upperBound(a, b int) float64 {
	ra, rb := m.row(a), m.row(b)
	rb = rb[:len(ra)]
	var num, den, evidence float64
	any := false
	for k := range ra {
		x, y := &ra[k], &rb[k]
		if x.null || y.null {
			continue
		}
		any = true
		w := (x.weight + y.weight) / 2
		evidence += w
		var bound float64
		if x.isNum && y.isNum {
			bound = m.numericSim(x.num, y.num, k)
		} else {
			la, lb := len(x.runes), len(y.runes)
			if l := max(la, lb); l > 0 && float64(maskCommon(la, lb, x.mask, y.mask))/float64(l) < matchCutoff {
				continue
			}
			bound = editSimBound(la, lb, x.counts, y.counts)
		}
		if bound >= matchCutoff {
			num += w * bound
			den += w
		}
	}
	if !any || den == 0 {
		return 0
	}
	// Optimistic: contradicting attributes contribute nothing to the
	// denominator, so this ratio is ≥ the real similarity. The
	// evidence factor uses the full compared weight, which is ≥ the
	// true similarity's factor input, keeping the bound sound.
	return num / den * m.evidenceFactor(evidence)
}

// runeMask is the rune-presence mask of rs: bit r&63 is set for every
// rune r.
func runeMask(rs []rune) uint64 {
	var m uint64
	for _, r := range rs {
		m |= 1 << (r & 63)
	}
	return m
}

// maskCommon bounds the rune-multiset intersection of two strings of
// rune lengths la and lb from their presence masks ma and mb. Every
// bucket set in one mask and clear in the other hides at least one
// rune without a partner on the other side, so the result is ≥ the
// histogram's common; bucket collisions only loosen it.
func maskCommon(la, lb int, ma, mb uint64) int {
	return min(la-bits.OnesCount64(ma&^mb), lb-bits.OnesCount64(mb&^ma))
}

// editSimBound returns an upper bound of the edit similarity of two
// strings of rune lengths la and lb in O(la+lb): the rune-multiset
// intersection (a sorted two-pointer merge) over the longer length.
func editSimBound(la, lb int, ca, cb runeCounts) float64 {
	l := max(la, lb)
	if l == 0 {
		return 1
	}
	common := 0
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i].r < cb[j].r:
			i++
		case ca[i].r > cb[j].r:
			j++
		default:
			if ca[i].n < cb[j].n {
				common += ca[i].n
			} else {
				common += cb[j].n
			}
			i++
			j++
		}
	}
	return float64(common) / float64(l)
}

// --- Union-find -----------------------------------------------------------

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// clusters returns per-row cluster ids (numbered by first appearance)
// and the member lists.
func (u *unionFind) clusters() ([]int, [][]int) {
	ids := make([]int, len(u.parent))
	var members [][]int
	rootID := map[int]int{}
	for i := range u.parent {
		r := u.find(i)
		id, ok := rootID[r]
		if !ok {
			id = len(members)
			rootID[r] = id
			members = append(members, nil)
		}
		ids[i] = id
		members[id] = append(members[id], i)
	}
	for _, m := range members {
		sort.Ints(m)
	}
	return ids, members
}
