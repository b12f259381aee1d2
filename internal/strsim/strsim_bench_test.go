package strsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func randomWord(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.Intn(26)))
	}
	return b.String()
}

func randomText(rng *rand.Rand, words, wordLen int) string {
	parts := make([]string, words)
	for i := range parts {
		parts[i] = randomWord(rng, wordLen)
	}
	return strings.Join(parts, " ")
}

func BenchmarkLevenshtein(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 32, 128} {
		x, y := randomWord(rng, n), randomWord(rng, n)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Levenshtein(x, y)
			}
		})
	}
}

func BenchmarkTFIDF(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := NewCorpus()
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = randomText(rng, 6, 7)
		c.AddText(texts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TFIDF(texts[i%len(texts)], texts[(i+1)%len(texts)])
	}
}

func BenchmarkTokenize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	text := randomText(rng, 20, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}
