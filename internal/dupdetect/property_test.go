package dupdetect

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/strsim"
	"hummer/internal/value"
)

// randomDirtyTable builds a random table whose rows are noisy copies
// of a random number of base entities, for property testing.
func randomDirtyTable(rng *rand.Rand) *relation.Relation {
	entities := 2 + rng.Intn(10)
	b := relation.NewBuilder("t", "Name", "Code", "Score")
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(n int) string {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return string(out)
	}
	for e := 0; e < entities; e++ {
		name := word(4+rng.Intn(8)) + " " + word(4+rng.Intn(8))
		code := fmt.Sprintf("%s-%04d", word(2), rng.Intn(10000))
		score := rng.Float64() * 1000
		copies := 1 + rng.Intn(3)
		for c := 0; c < copies; c++ {
			n, cd, sc := name, code, score
			if rng.Float64() < 0.3 {
				runes := []byte(n)
				runes[rng.Intn(len(runes))] = letters[rng.Intn(len(letters))]
				n = string(runes)
			}
			row := relation.Row{value.NewString(n), value.NewString(cd), value.NewFloat(sc)}
			if rng.Float64() < 0.2 {
				row[rng.Intn(3)] = value.Null
			}
			b.Add(row[0], row[1], row[2])
		}
	}
	return b.Build()
}

// TestPropertyFilterSoundRandom: on random dirty tables, the filtered
// and unfiltered runs must produce identical clusterings — the bound
// is sound by construction, this guards regressions.
func TestPropertyFilterSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		rel := randomDirtyTable(rng)
		for _, th := range []float64{0.6, 0.8, 0.95} {
			on, err1 := DetectContext(t.Context(), rel, Config{Threshold: th})
			off, err2 := DetectContext(t.Context(), rel, Config{Threshold: th, DisableFilter: true})
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: %v / %v", trial, err1, err2)
			}
			for i := range on.ObjectIDs {
				if on.ObjectIDs[i] != off.ObjectIDs[i] {
					t.Fatalf("trial %d th=%.2f: filter changed clustering at row %d\n%s",
						trial, th, i, rel)
				}
			}
		}
	}
}

// TestPropertyClusterInvariants: cluster ids are dense, first-
// appearance ordered, and partition the rows — for random inputs.
func TestPropertyClusterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		rel := randomDirtyTable(rng)
		res, err := DetectContext(t.Context(), rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ObjectIDs) != rel.Len() {
			t.Fatalf("trial %d: %d ids for %d rows", trial, len(res.ObjectIDs), rel.Len())
		}
		maxSeen := -1
		for _, id := range res.ObjectIDs {
			if id > maxSeen+1 {
				t.Fatalf("trial %d: ids not dense: %v", trial, res.ObjectIDs)
			}
			if id == maxSeen+1 {
				maxSeen = id
			}
		}
		total := 0
		for _, members := range res.Clusters {
			total += len(members)
		}
		if total != rel.Len() {
			t.Fatalf("trial %d: clusters cover %d of %d rows", trial, total, rel.Len())
		}
	}
}

// TestPropertyThresholdMonotone: raising the threshold can only break
// clusters apart (the duplicate pair set shrinks), never create new
// merges. Cluster count must be non-decreasing in the threshold.
func TestPropertyThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rel := randomDirtyTable(rng)
		prev := -1
		for _, th := range []float64{0.5, 0.7, 0.9, 0.99} {
			res, err := DetectContext(t.Context(), rel, Config{Threshold: th})
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.Clusters)
			if prev >= 0 && n < prev {
				t.Fatalf("trial %d: clusters dropped from %d to %d as threshold rose to %.2f",
					trial, prev, n, th)
			}
			prev = n
		}
	}
}

// TestPropertySimilaritySymmetric: the pair scores must not depend on
// argument order (checked through the duplicate pair lists of a table
// and its row-reversed twin being consistent).
func TestPropertySimilaritySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		rel := randomDirtyTable(rng)
		cols := make([]int, rel.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		m, err := newMeasure(context.Background(), rel, cols, Config{Threshold: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		var sc strsim.Scratch
		for a := 0; a < rel.Len(); a++ {
			for b := a + 1; b < rel.Len(); b++ {
				if s1, s2 := m.similarity(a, b, &sc), m.similarity(b, a, &sc); s1 != s2 {
					t.Fatalf("similarity asymmetric: (%d,%d)=%g vs %g", a, b, s1, s2)
				}
			}
		}
	}
}

// gateAlphabet puts runes that share a mask bucket side by side: 'a'
// (97) and '!' (33) both land in bucket 33, 'é' (233) and ')' (41)
// both in bucket 41.
const gateAlphabet = "a!é)bcde"

// randomGateTable builds a random relation whose cells stress the
// rune-mask gate: colliding runes, empty values beside non-empty ones
// and NULLs, identical and one-edit copies of earlier values, values
// with more than 64 distinct runes, and a column mixing numbers with
// strings.
func randomGateTable(rng *rand.Rand) *relation.Relation {
	alpha := []rune(gateAlphabet)
	short := func() []rune {
		out := make([]rune, rng.Intn(9))
		for i := range out {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
		return out
	}
	long := func() []rune {
		n := 65 + rng.Intn(32)
		out := make([]rune, n)
		for i, p := range rng.Perm(n) {
			out[i] = 0x4E00 + rune(p)
		}
		return out
	}
	edit := func(rs []rune) []rune {
		out := slices.Clone(rs)
		fresh := alpha[rng.Intn(len(alpha))]
		if len(out) > 8 {
			fresh = 0x9F00 + rune(rng.Intn(64))
		}
		switch pos := rng.Intn(len(out) + 1); {
		case pos == len(out) || rng.Intn(3) == 0:
			out = slices.Insert(out, pos, fresh)
		case rng.Intn(2) == 0:
			out[pos] = fresh
		default:
			out = slices.Delete(out, pos, pos+1)
		}
		return out
	}
	fresh := []func() value.Value{
		func() value.Value { return value.NewString(string(short())) },
		func() value.Value { return value.NewString(string(long())) },
		func() value.Value {
			if rng.Intn(2) == 0 {
				return value.NewInt(int64(rng.Intn(4)))
			}
			return value.NewString(string(short()))
		},
	}
	n := 20 + rng.Intn(30)
	cells := make([][]value.Value, len(fresh))
	b := relation.NewBuilder("t", "Short", "Long", "Mixed")
	for i := 0; i < n; i++ {
		row := make(relation.Row, len(fresh))
		for k := range row {
			switch p := rng.Float64(); {
			case p < 0.1:
				row[k] = value.Null
			case p < 0.2:
				row[k] = value.NewString("")
			case i > 0 && p < 0.4:
				row[k] = cells[k][rng.Intn(i)]
			case i > 0 && p < 0.7:
				prev := cells[k][rng.Intn(i)]
				if prev.IsNull() || prev.Kind() != value.KindString {
					row[k] = fresh[k]()
				} else {
					row[k] = value.NewString(string(edit([]rune(prev.Text()))))
				}
			default:
				row[k] = fresh[k]()
			}
			cells[k] = append(cells[k], row[k])
		}
		b.Add(row...)
	}
	return b.Build()
}

// histCommon is the rune-multiset intersection size of a and b.
func histCommon(a, b []rune) int {
	count := map[rune]int{}
	for _, r := range a {
		count[r]++
	}
	common := 0
	for _, r := range b {
		if count[r] > 0 {
			count[r]--
			common++
		}
	}
	return common
}

// TestRuneMaskGateExact: the rune-mask gate in front of editSimBound
// changes no bound. Hand cases pin maskCommon's value — sound (≥ the
// histogram's common) and no looser than the smaller one-sided bound —
// and on random relations upperBound returns the reference bound's
// exact bits for every ordered pair. TestPropertyUpperBoundDominates
// only checks bound ≥ similarity, so it cannot catch an over-tight
// gate; this test can.
func TestRuneMaskGateExact(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"aaaa", "abcd", 1},
		{"abcd", "aaaa", 1},
		{"abcd", "abcdx", 4},
		{"abcdx", "abcd", 4},
		{"a", "!", 1}, // one bucket: the collision hides the mismatch
		{"é)", ")é", 2},
		{"", "abc", 0},
		{"abc", "abc", 3},
	} {
		ra, rb := []rune(tc.a), []rune(tc.b)
		got := maskCommon(len(ra), len(rb), runeMask(ra), runeMask(rb))
		if got != tc.want || got < histCommon(ra, rb) {
			t.Errorf("maskCommon(%q, %q) = %d, want %d (histogram common %d)",
				tc.a, tc.b, got, tc.want, histCommon(ra, rb))
		}
	}

	rng := rand.New(rand.NewSource(27))
	rejected, nearMisses := 0, 0
	for trial := 0; trial < 40; trial++ {
		rel := randomGateTable(rng)
		cols := []int{0, 1, 2}
		m, err := newMeasure(context.Background(), rel, cols, Config{Threshold: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < rel.Len(); a++ {
			for b := 0; b < rel.Len(); b++ {
				got, want := m.upperBound(a, b), refUpperBound(m, a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: upperBound(%d,%d) = %v, reference %v\n%v\n%v",
						trial, a, b, got, want, rel.Row(a), rel.Row(b))
				}
				for k := range cols {
					ca, cb := m.row(a)[k], m.row(b)[k]
					if ca.null || cb.null {
						continue
					}
					ra, rb := ca.runes, cb.runes
					ma, mb := ca.mask, cb.mask
					c, l := maskCommon(len(ra), len(rb), ma, mb), max(len(ra), len(rb))
					if c < histCommon(ra, rb) {
						t.Fatalf("maskCommon(%q, %q) = %d below the histogram's %d",
							string(ra), string(rb), c, histCommon(ra, rb))
					}
					switch {
					case l > 0 && float64(c)/float64(l) < matchCutoff:
						rejected++
					case ma != mb && float64(histCommon(ra, rb))/float64(l) >= matchCutoff:
						nearMisses++
					}
				}
			}
		}
	}
	// Both must occur, or the fixtures test neither a working gate nor
	// an over-tight one.
	if rejected == 0 || nearMisses == 0 {
		t.Fatalf("gate rejected %d attribute pairs, passed %d near misses", rejected, nearMisses)
	}
}

// TestPropertyUpperBoundDominates: the filter bound must be ≥ the true
// similarity on every random pair — the soundness invariant itself.
func TestPropertyUpperBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		rel := randomDirtyTable(rng)
		cols := make([]int, rel.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		m, err := newMeasure(context.Background(), rel, cols, Config{Threshold: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		var sc strsim.Scratch
		for a := 0; a < rel.Len(); a++ {
			for b := a + 1; b < rel.Len(); b++ {
				ub := m.upperBound(a, b)
				sim := m.similarity(a, b, &sc)
				if ub < sim-1e-9 {
					t.Fatalf("bound %g < similarity %g for rows %d,%d:\n%v\n%v",
						ub, sim, a, b, rel.Row(a), rel.Row(b))
				}
			}
		}
	}
}
