package strsim

import (
	"math"
	"math/rand"
	"testing"
)

func randToken(rng *rand.Rand) string {
	const letters = "abcdefgh"
	n := 1 + rng.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

func randTokens(rng *rand.Rand) []string {
	n := rng.Intn(8)
	out := make([]string, n)
	for i := range out {
		out[i] = randToken(rng)
	}
	return out
}

// TestTermVecMatchesVector: TermVec must carry exactly the weights of
// the map-based TFIDFVector (same tf scaling, same IDF, same norm up
// to accumulation-order rounding).
func TestTermVecMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCorpus()
	var all [][]string
	for i := 0; i < 40; i++ {
		toks := randTokens(rng)
		all = append(all, toks)
		c.AddDoc(toks)
	}
	for _, toks := range all {
		v := c.TFIDFVector(toks)
		tv := c.TermVec(toks)
		if len(v) != tv.Len() {
			t.Fatalf("term count differs: %d vs %d for %v", len(v), tv.Len(), toks)
		}
		for i, term := range tv.Terms {
			if i > 0 && tv.Terms[i-1] >= term {
				t.Fatalf("terms not strictly sorted: %v", tv.Terms)
			}
			if math.Abs(v[term]-tv.Ws[i]) > 1e-12 {
				t.Fatalf("weight of %q differs: %v vs %v", term, v[term], tv.Ws[i])
			}
		}
	}
}

// TestDotTermVecsMatchesCosine: the sorted-merge dot product must agree
// with the map-based cosine.
func TestDotTermVecsMatchesCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := NewCorpus()
	var all [][]string
	for i := 0; i < 30; i++ {
		toks := randTokens(rng)
		all = append(all, toks)
		c.AddDoc(toks)
	}
	for i := 0; i < len(all); i++ {
		for j := i; j < len(all); j++ {
			want := Cosine(c.TFIDFVector(all[i]), c.TFIDFVector(all[j]))
			got := DotTermVecs(c.TermVec(all[i]), c.TermVec(all[j]))
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("dot(%v, %v) = %v, cosine = %v", all[i], all[j], got, want)
			}
		}
	}
	if got := DotTermVecs(TermVec{}, TermVec{}); got != 0 {
		t.Errorf("dot of empty vectors = %v, want 0", got)
	}
}

// softTFIDFTokens is the map-based SoftTFIDF reference: TFIDF cosine
// where each token of ta counts against its closest token of tb under
// Jaro-Winkler, when that inner similarity reaches SoftTFIDFThreshold.
func softTFIDFTokens(c *Corpus, ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	va, vb := c.TFIDFVector(ta), c.TFIDFVector(tb)
	var sim float64
	for t, wa := range va {
		best, bestSim := "", 0.0
		for u := range vb {
			s := 1.0
			if t != u {
				s = jaroWinkler(t, u)
			}
			if s > bestSim {
				best, bestSim = u, s
			}
		}
		if bestSim >= SoftTFIDFThreshold {
			sim += wa * vb[best] * bestSim
		}
	}
	return min(sim, 1)
}

// TestSoftTFIDFTermVecsMatchesTokens: the deterministic term-vector
// SoftTFIDF must agree with the map-based reference (up to
// accumulation-order rounding and tie choice among equal weights).
func TestSoftTFIDFTermVecsMatchesTokens(t *testing.T) {
	c := NewCorpus()
	pairs := [][2]string{
		{"jonathan smith", "jonathon smith"},
		{"maria garcia", "maria garcia"},
		{"wei chen", "lena fischer"},
		{"beethoven symphony no 9", "symphony 9 beethoven"},
		{"", ""},
		{"x", ""},
	}
	for _, p := range pairs {
		c.AddText(p[0])
		c.AddText(p[1])
	}
	var sc Scratch
	for _, p := range pairs {
		ta, tb := Tokenize(p[0]), Tokenize(p[1])
		want := softTFIDFTokens(c, ta, tb)
		got := SoftTFIDFTermVecs(&sc, c.TermVec(ta), c.TermVec(tb))
		if math.Abs(want-got) > 1e-9 {
			t.Errorf("SoftTFIDF(%q, %q) = %v via term vecs, %v via tokens", p[0], p[1], got, want)
		}
	}
}

// TestScratchJaroWinklerIdentical: the scratch-based Jaro-Winkler must
// be bit-identical to the allocating reference, including the early-exit
// cases (empty strings, zero matches) and repeated reuse of the same
// Scratch.
func TestScratchJaroWinklerIdentical(t *testing.T) {
	cases := [][2]string{
		{"", ""}, {"a", ""}, {"", "b"}, {"abc", "abc"},
		{"martha", "marhta"}, {"dixon", "dicksonx"}, {"xy", "qq"},
		{"jonathan", "jonathon"}, {"für", "fuer"},
	}
	var sc Scratch
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		cases = append(cases, [2]string{randToken(rng), randToken(rng)})
	}
	for _, cse := range cases {
		if want, got := jaro(cse[0], cse[1]), sc.Jaro(cse[0], cse[1]); want != got {
			t.Fatalf("Jaro(%q, %q): scratch %v, plain %v", cse[0], cse[1], got, want)
		}
		if want, got := jaroWinkler(cse[0], cse[1]), sc.JaroWinkler(cse[0], cse[1]); want != got {
			t.Fatalf("JaroWinkler(%q, %q): scratch %v, plain %v", cse[0], cse[1], got, want)
		}
	}
}
