package strsim

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"über", "uber", 1}, // rune-wise, not byte-wise
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	err := quick.Check(func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	err := quick.Check(func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSim(t *testing.T) {
	if !approx(LevenshteinSim("", ""), 1) {
		t.Error("two empties must be identical")
	}
	if !approx(LevenshteinSim("abc", "abc"), 1) {
		t.Error("identical strings must score 1")
	}
	if !approx(LevenshteinSim("abcd", "abcx"), 0.75) {
		t.Errorf("sim = %g, want 0.75", LevenshteinSim("abcd", "abcx"))
	}
	if LevenshteinSim("abc", "xyz") != 0 {
		t.Error("disjoint equal-length strings must score 0")
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classic reference pairs.
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444444},
		{"DIXON", "DICKSONX", 0.766666667},
		{"JELLYFISH", "SMELLYFISH", 0.896296296},
		{"abc", "abc", 1},
		{"", "", 1},
		{"a", "", 0},
		{"abc", "xyz", 0},
	}
	var sc Scratch
	for _, c := range cases {
		if got := sc.Jaro(c.a, c.b); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Jaro(%q,%q) = %.9f, want %.9f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.961111111},
		{"DWAYNE", "DUANE", 0.84},
		{"abc", "abc", 1},
	}
	var sc Scratch
	for _, c := range cases {
		if got := sc.JaroWinkler(c.a, c.b); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("JaroWinkler(%q,%q) = %.9f, want %.9f", c.a, c.b, got, c.want)
		}
	}
}

func TestSimilaritiesBounded(t *testing.T) {
	var sc Scratch
	err := quick.Check(func(a, b string) bool {
		for _, s := range []float64{
			LevenshteinSim(a, b), sc.Jaro(a, b), sc.JaroWinkler(a, b),
		} {
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 42 foo_bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("")) != 0 || len(Tokenize("...")) != 0 {
		t.Error("empty/punct-only input must yield no tokens")
	}
}

func TestNumericSim(t *testing.T) {
	if !approx(NumericSim(5, 5), 1) || !approx(NumericSim(0, 0), 1) {
		t.Error("equal numbers must score 1")
	}
	if !approx(NumericSim(10, 5), 0.5) {
		t.Errorf("NumericSim(10,5) = %g, want 0.5", NumericSim(10, 5))
	}
	if NumericSim(1, -1) != 0 {
		t.Errorf("NumericSim(1,-1) = %g, want 0", NumericSim(1, -1))
	}
	if s := NumericSim(100, 99); s < 0.98 {
		t.Errorf("NumericSim(100,99) = %g, want ~0.99", s)
	}
}

func TestCorpusIDF(t *testing.T) {
	c := NewCorpus()
	c.AddText("john smith")
	c.AddText("john doe")
	c.AddText("jane roe")
	if c.docs != 3 {
		t.Fatalf("docs = %d", c.docs)
	}
	if c.IDF("john") >= c.IDF("smith") {
		t.Error("frequent token must have lower IDF than rare token")
	}
	if c.IDF("unseen") != c.IDF("smith") {
		t.Error("unseen token must weigh like df=1")
	}
}

func TestSoftIDFBounds(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 10; i++ {
		c.AddText("common token")
	}
	c.AddText("rare")
	if s := c.SoftIDF("common"); s <= 0 || s > 1 {
		t.Errorf("SoftIDF(common) = %g, out of (0,1]", s)
	}
	if s := c.SoftIDF("rare"); s <= c.SoftIDF("common") {
		t.Error("rare token must have higher soft IDF")
	}
	empty := NewCorpus()
	if empty.SoftIDF("x") != 1 {
		t.Error("empty corpus must default soft IDF to 1")
	}
}

func TestTFIDFIdenticalAndDisjoint(t *testing.T) {
	c := NewCorpus()
	c.AddText("alice berlin 30")
	c.AddText("bob tokyo 25")
	if s := c.TFIDF("alice berlin", "alice berlin"); !approx(s, 1) {
		t.Errorf("identical TFIDF = %g, want 1", s)
	}
	if s := c.TFIDF("alice berlin", "bob tokyo"); s != 0 {
		t.Errorf("disjoint TFIDF = %g, want 0", s)
	}
}

func TestTFIDFWeighsRareTokensHigher(t *testing.T) {
	c := NewCorpus()
	// "smith" appears everywhere; "xylophone" once.
	for i := 0; i < 20; i++ {
		c.AddText("smith common words")
	}
	c.AddText("xylophone smith")
	shared := c.TFIDF("xylophone foo", "xylophone bar")
	common := c.TFIDF("smith foo", "smith bar")
	if shared <= common {
		t.Errorf("rare shared token (%g) must outweigh common shared token (%g)", shared, common)
	}
}

// softTFIDF is SoftTFIDF of two texts under corpus c.
func softTFIDF(c *Corpus, a, b string) float64 {
	var sc Scratch
	return SoftTFIDFTermVecs(&sc, c.TermVec(Tokenize(a)), c.TermVec(Tokenize(b)))
}

func TestSoftTFIDFMatchesTypos(t *testing.T) {
	c := NewCorpus()
	c.AddText("jonathan smith berlin")
	c.AddText("nathalie meyer tokyo")
	hard := c.TFIDF("jonathan smith", "jonathon smith")
	soft := softTFIDF(c, "jonathan smith", "jonathon smith")
	if soft <= hard {
		t.Errorf("SoftTFIDF (%g) must beat TFIDF (%g) on typo'd token", soft, hard)
	}
	if soft < 0.9 {
		t.Errorf("SoftTFIDF on near-identical strings = %g, want ≥ 0.9", soft)
	}
}

func TestSoftTFIDFEdgeCases(t *testing.T) {
	c := NewCorpus()
	c.AddText("a b")
	if s := softTFIDF(c, "", ""); s != 1 {
		t.Errorf("both empty = %g, want 1", s)
	}
	if s := softTFIDF(c, "a", ""); s != 0 {
		t.Errorf("one empty = %g, want 0", s)
	}
}

func TestSoftTFIDFBounded(t *testing.T) {
	c := NewCorpus()
	texts := []string{"alpha beta", "beta gamma", "gamma delta alpha"}
	for _, s := range texts {
		c.AddText(s)
	}
	for _, a := range texts {
		for _, b := range texts {
			s := softTFIDF(c, a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Errorf("SoftTFIDF(%q,%q) = %g out of bounds", a, b, s)
			}
			if a == b && !approx(s, 1) {
				t.Errorf("SoftTFIDF(%q,%q) = %g, want 1", a, b, s)
			}
		}
	}
}

func TestCosine(t *testing.T) {
	a := Vector{"x": 1}
	b := Vector{"x": 0.6, "y": 0.8}
	if got := Cosine(a, b); !approx(got, 0.6) {
		t.Errorf("Cosine = %g, want 0.6", got)
	}
	if got := Cosine(a, Vector{}); got != 0 {
		t.Errorf("Cosine with empty = %g", got)
	}
}
