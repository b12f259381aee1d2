// Package strsim implements the string similarity measures HumMer's
// matching components rely on: Levenshtein edit distance, Jaro and
// Jaro-Winkler (on a reusable Scratch), token-based TFIDF cosine
// similarity with corpus statistics, and the hybrid SoftTFIDF measure
// of Cohen, Ravikumar and Fienberg (IIWeb 2003) used by DUMAS for
// field-wise comparison.
//
// All similarities are normalized to [0,1], 1 meaning identical.
package strsim

import (
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Levenshtein returns the edit distance between a and b (unit costs,
// runes as symbols).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSim is the normalized edit similarity:
// 1 - dist/max(len(a), len(b)); two empty strings are identical.
func LevenshteinSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// Tokenize splits s into lower-cased tokens at any non-alphanumeric
// boundary. It is the shared tokenizer for all token-based measures;
// Tokenize(s) is AppendTokens(nil, s).
func Tokenize(s string) []string { return AppendTokens(nil, s) }

// AppendTokens appends the tokens of s to dst and returns it: each
// maximal run of letters and digits, lower-cased. A run that is already
// lower case is appended as a substring of s, so it costs no
// allocation; only a run holding a rune that lower-casing changes is
// copied. A run never holds an invalid byte (it decodes to U+FFFD,
// which is no letter), so its bytes are exactly its runes' encodings.
func AppendTokens(dst []string, s string) []string {
	start, upper := -1, false
	for i, r := range s {
		var tok, up bool
		if r < utf8.RuneSelf {
			up = 'A' <= r && r <= 'Z'
			tok = up || 'a' <= r && r <= 'z' || '0' <= r && r <= '9'
		} else if tok = unicode.IsLetter(r) || unicode.IsDigit(r); tok {
			up = unicode.ToLower(r) != r
		}
		switch {
		case tok && start < 0:
			start, upper = i, up
		case tok:
			upper = upper || up
		case start >= 0:
			dst = appendToken(dst, s[start:i], upper)
			start = -1
		}
	}
	if start >= 0 {
		dst = appendToken(dst, s[start:], upper)
	}
	return dst
}

// appendToken appends one letter/digit run, lower-cased when upper.
func appendToken(dst []string, run string, upper bool) []string {
	if upper {
		var b strings.Builder
		b.Grow(len(run))
		for _, r := range run {
			b.WriteRune(unicode.ToLower(r))
		}
		run = b.String()
	}
	return append(dst, run)
}

// NumericSim compares two numbers: 1 when equal, decaying with the
// relative difference |a-b| / max(|a|,|b|). Two zeros are identical.
func NumericSim(a, b float64) float64 {
	if a == b {
		return 1
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 1
	}
	d := math.Abs(a-b) / m
	if d > 1 {
		return 0
	}
	return 1 - d
}

// --- Corpus / TFIDF ----------------------------------------------------

// Corpus accumulates document frequencies over a collection of token
// documents, providing IDF weights for TFIDF and SoftTFIDF. A
// "document" is whatever unit the caller chooses: a whole tuple for
// DUMAS duplicate search, a column's values for identifying-power
// estimation.
type Corpus struct {
	docs int
	df   map[string]int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{df: make(map[string]int)}
}

// AddDoc records one document's tokens (document frequency counts each
// token once per document).
func (c *Corpus) AddDoc(tokens []string) {
	c.docs++
	seen := map[string]bool{}
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			c.df[t]++
		}
	}
}

// AddText tokenizes s and records it as one document.
func (c *Corpus) AddText(s string) { c.AddDoc(Tokenize(s)) }

// IDF returns the smoothed inverse document frequency of token t:
// log(1 + N/df). Unknown tokens receive the maximum weight
// log(1 + N), i.e. df treated as 1.
func (c *Corpus) IDF(t string) float64 {
	df := c.df[t]
	if df < 1 {
		df = 1
	}
	return math.Log(1 + float64(c.docs)/float64(df))
}

// SoftIDF is a dampened identifying-power weight in [0,1]:
// IDF normalized by the maximum possible IDF of the corpus. Used by
// duplicate detection to weight attribute values ("soft version of
// IDF" in the paper, §2.3).
func (c *Corpus) SoftIDF(t string) float64 {
	if c.docs == 0 {
		return 1
	}
	maxIDF := math.Log(1 + float64(c.docs))
	if maxIDF == 0 {
		return 1
	}
	return c.IDF(t) / maxIDF
}

// Vector is a sparse TFIDF-weighted token vector, L2-normalized.
type Vector map[string]float64

// TFIDFVector builds the normalized TFIDF vector of tokens under
// corpus c. Term frequency is log-scaled (1 + log tf).
func (c *Corpus) TFIDFVector(tokens []string) Vector {
	tf := map[string]int{}
	for _, t := range tokens {
		tf[t]++
	}
	v := make(Vector, len(tf))
	var norm float64
	for t, n := range tf {
		w := (1 + math.Log(float64(n))) * c.IDF(t)
		v[t] = w
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for t := range v {
			v[t] /= norm
		}
	}
	return v
}

// Cosine returns the cosine similarity of two normalized vectors.
func Cosine(a, b Vector) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for t, w := range a {
		dot += w * b[t]
	}
	if dot > 1 { // guard against rounding
		dot = 1
	}
	return dot
}

// TFIDF computes the TFIDF cosine similarity of two texts under
// corpus c.
func (c *Corpus) TFIDF(a, b string) float64 {
	return Cosine(c.TFIDFVector(Tokenize(a)), c.TFIDFVector(Tokenize(b)))
}

// --- Deterministic sparse term vectors ----------------------------------

// TermVec is a TFIDF-weighted, L2-normalized sparse vector whose terms
// are sorted lexicographically. It carries the same weights as the
// map-based Vector, but every operation iterates terms in sorted
// order, so float accumulation order — and with it the low-order bits
// of every similarity — is deterministic run-to-run, which map
// iteration cannot provide. The parallel matching paths depend on
// this: a byte-identical-results guarantee needs deterministic floats.
// Dot products over two TermVecs are also allocation-free (a sorted
// two-pointer merge instead of per-term map lookups).
type TermVec struct {
	Terms []string
	Ws    []float64
}

// Len returns the number of distinct terms.
func (v TermVec) Len() int { return len(v.Terms) }

// TermVec builds the normalized TFIDF term vector of tokens under
// corpus c, with terms sorted. Term frequency is log-scaled
// (1 + log tf), exactly as TFIDFVector.
func (c *Corpus) TermVec(tokens []string) TermVec {
	if len(tokens) == 0 {
		return TermVec{}
	}
	sorted := append([]string(nil), tokens...)
	sort.Strings(sorted)
	v := TermVec{
		Terms: make([]string, 0, len(sorted)),
		Ws:    make([]float64, 0, len(sorted)),
	}
	var norm float64
	flush := func(t string, tf int) {
		w := (1 + math.Log(float64(tf))) * c.IDF(t)
		v.Terms = append(v.Terms, t)
		v.Ws = append(v.Ws, w)
		norm += w * w
	}
	run := 1
	for i := 1; i <= len(sorted); i++ {
		if i < len(sorted) && sorted[i] == sorted[i-1] {
			run++
			continue
		}
		flush(sorted[i-1], run)
		run = 1
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v.Ws {
			v.Ws[i] /= norm
		}
	}
	return v
}

// DotTermVecs returns the cosine similarity of two normalized term
// vectors: a sorted two-pointer merge, allocation-free and with a
// deterministic accumulation order.
func DotTermVecs(a, b TermVec) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i] < b.Terms[j]:
			i++
		case a.Terms[i] > b.Terms[j]:
			j++
		default:
			dot += a.Ws[i] * b.Ws[j]
			i++
			j++
		}
	}
	if dot > 1 { // guard against rounding
		dot = 1
	}
	return dot
}

// SoftTFIDFThreshold is the inner-similarity threshold θ of Cohen et
// al.: tokens with JaroWinkler ≥ θ are considered soft matches.
const SoftTFIDFThreshold = 0.9

// SoftTFIDFTermVecs computes the SoftTFIDF similarity over prebuilt
// term vectors: for each term of va (in sorted order) the closest term
// of vb under the inner measure contributes wa·wb·sim when the inner
// similarity reaches SoftTFIDFThreshold. sc provides the reusable
// buffers for the inner Jaro-Winkler comparisons, so the inner loop
// performs no allocation. Among equally-close tokens the
// lexicographically first wins, making the result deterministic. The
// corpus statistics are already in the vectors' weights.
func SoftTFIDFTermVecs(sc *Scratch, va, vb TermVec) float64 {
	if va.Len() == 0 && vb.Len() == 0 {
		return 1
	}
	if va.Len() == 0 || vb.Len() == 0 {
		return 0
	}
	var sim float64
	for i, t := range va.Terms {
		bestW, bestSim := 0.0, 0.0
		for j, u := range vb.Terms {
			var s float64
			if t == u {
				s = 1
			} else {
				s = sc.JaroWinkler(t, u)
			}
			if s > bestSim {
				bestW, bestSim = vb.Ws[j], s
				// Nothing can beat an exact match (comparison is
				// strict), and duplicate fields usually are exact —
				// skip the remaining Jaro-Winkler calls.
				if bestSim == 1 {
					break
				}
			}
		}
		if bestSim >= SoftTFIDFThreshold {
			sim += va.Ws[i] * bestW * bestSim
		}
	}
	if sim > 1 {
		sim = 1
	}
	return sim
}
