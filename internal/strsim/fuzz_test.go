package strsim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// naiveLevenshteinSim is the reference oracle: the O(n·m) full dynamic
// program with no banding, no early abandon, no buffer reuse.
func naiveLevenshteinSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	d := make([][]int, la+1)
	for i := range d {
		d[i] = make([]int, lb+1)
		d[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		d[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := d[i-1][j] + 1
			if x := d[i][j-1] + 1; x < m {
				m = x
			}
			if x := d[i-1][j-1] + cost; x < m {
				m = x
			}
			d[i][j] = m
		}
	}
	max := la
	if lb > max {
		max = lb
	}
	return 1 - float64(d[la][lb])/float64(max)
}

// FuzzLevenshteinSimBounded checks the banded, early-abandoning edit
// similarity against the naive full dynamic program: whenever the true
// similarity reaches the cutoff the bounded kernel must return it
// exactly, and whenever it abandons, both the returned canonical value
// and the true similarity must be below the cutoff. Symmetry must hold
// in all cases. Runs as a plain regression test over the seed corpus
// in CI; `go test -fuzz=FuzzLevenshteinSimBounded ./internal/strsim`
// explores further.
func FuzzLevenshteinSimBounded(f *testing.F) {
	f.Add("", "", 0.5)
	f.Add("kitten", "sitting", 0.5)
	f.Add("kitten", "sitting", 0.9)
	f.Add("jonathan smith", "jonathon smith", 0.75)
	f.Add("abcdefghij", "abcdefghij", 0.99)
	f.Add("abc", "xyz", 0.0)
	f.Add("für", "fuer", 0.6)
	f.Add("aaaaaaaaaaaaaaaa", "a", 0.3)
	f.Add("ab", "ba", 0.75)
	f.Add("日本語テキスト", "日本語てきすと", 0.5)
	f.Fuzz(func(t *testing.T, a, b string, cutoff float64) {
		// The kernel's contract is defined for cutoff ∈ [0, 1); fold
		// arbitrary fuzz floats into it.
		if math.IsNaN(cutoff) || cutoff < 0 {
			cutoff = 0
		}
		if cutoff >= 1 {
			cutoff = math.Mod(cutoff, 1)
		}
		want := naiveLevenshteinSim(a, b)
		var sc Scratch
		got := sc.LevenshteinSimBounded(a, b, cutoff)
		sym := sc.LevenshteinSimBounded(b, a, cutoff)
		if got != sym {
			t.Fatalf("not symmetric: sim(%q,%q)=%v, sim(%q,%q)=%v (cutoff %v)",
				a, b, got, b, a, sym, cutoff)
		}
		const eps = 1e-12
		if math.Abs(got-want) <= eps {
			return // exact: always acceptable
		}
		// The kernel abandoned: both the true similarity and the
		// canonical replacement must be below the cutoff, so callers
		// branching on "≥ cutoff" see exact semantics.
		if want >= cutoff {
			t.Fatalf("sim(%q,%q) = %v ≥ cutoff %v but bounded returned %v",
				a, b, want, cutoff, got)
		}
		if got >= cutoff {
			t.Fatalf("bounded sim(%q,%q) = %v claims ≥ cutoff %v but true sim is %v",
				a, b, got, cutoff, want)
		}
	})
}

// jaro is the allocating reference Jaro similarity the Scratch kernel
// must reproduce bit for bit.
func jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i, c := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && rb[j] == c {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// jaroWinkler is the allocating reference Jaro-Winkler similarity
// (scaling factor 0.1, max prefix 4).
func jaroWinkler(a, b string) float64 {
	j := jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// FuzzScratchJaroWinkler checks the allocation-free scratch kernel
// against the allocating reference implementation bit for bit.
func FuzzScratchJaroWinkler(f *testing.F) {
	f.Add("", "")
	f.Add("martha", "marhta")
	f.Add("dixon", "dicksonx")
	f.Add("jonathan", "jonathon")
	f.Add("a", "")
	f.Add("日本", "日本語")
	var sc Scratch
	f.Fuzz(func(t *testing.T, a, b string) {
		if want, got := jaro(a, b), sc.Jaro(a, b); want != got {
			t.Fatalf("Jaro(%q,%q): scratch %v, reference %v", a, b, got, want)
		}
		if want, got := jaroWinkler(a, b), sc.JaroWinkler(a, b); want != got {
			t.Fatalf("JaroWinkler(%q,%q): scratch %v, reference %v", a, b, got, want)
		}
	})
}

// builderTokenize is the reference tokenizer: every letter or digit
// rune lower-cased into a strings.Builder, flushed at each other rune.
func builderTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// FuzzTokenize checks the sub-slicing tokenizer against the builder
// reference token for token, including invalid UTF-8 and runes whose
// lower case has a different encoded length.
func FuzzTokenize(f *testing.F) {
	f.Add("")
	f.Add("Hello, World! 42 foo_bar")
	f.Add("already lower case")
	f.Add("MiXeD cAsE wOrDs")
	f.Add("İstanbul")
	f.Add("STRAẞE ẞ")
	f.Add("ǅemal ǅ")
	f.Add("ΣΑΣ σας")
	f.Add("0123 4567.89 ٣٤")
	f.Add("bad\xffbyte\xc3 \xe2\x82 Ünï\x80cödé")
	f.Fuzz(func(t *testing.T, s string) {
		want, got := builderTokenize(s), Tokenize(s)
		if !slices.Equal(want, got) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
		if pre := AppendTokens([]string{"x"}, s); !slices.Equal(pre[1:], want) || pre[0] != "x" {
			t.Fatalf("AppendTokens(x, %q) = %q, reference x + %q", s, pre, want)
		}
	})
}
