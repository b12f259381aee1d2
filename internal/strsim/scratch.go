package strsim

// Scratch holds reusable rune and DP-row buffers for the
// allocation-free similarity entry points. The package-level
// Levenshtein functions allocate two rune slices and two DP rows per
// call; in duplicate detection's O(n²) pair loop those allocations
// dominate the profile. A Scratch amortizes them across calls.
//
// A Scratch is not safe for concurrent use: give each worker goroutine
// its own (the zero value is ready to use).
type Scratch struct {
	ra, rb    []rune
	prev, cur []int
	ma, mb    []bool
}

// AppendRunes appends the runes of s to dst, reusing dst's capacity.
func AppendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// LevenshteinSim is the allocation-free equivalent of the package-level
// LevenshteinSim.
func (s *Scratch) LevenshteinSim(a, b string) float64 {
	return s.LevenshteinSimBounded(a, b, 0)
}

// LevenshteinSimBounded returns LevenshteinSim(a, b) exactly whenever
// it is at least cutoff; when the true similarity is below cutoff it
// returns a canonical value that is still below cutoff (the best
// similarity the abandoned computation could have reached), without
// finishing the full dynamic program. The result is deterministic and
// symmetric in a and b, so callers that only branch on "≥ cutoff"
// observe semantics identical to the exact function.
func (s *Scratch) LevenshteinSimBounded(a, b string, cutoff float64) float64 {
	s.ra = AppendRunes(s.ra[:0], a)
	s.rb = AppendRunes(s.rb[:0], b)
	return s.LevenshteinSimBoundedRunes(s.ra, s.rb, cutoff)
}

// LevenshteinSimBoundedRunes is LevenshteinSimBounded over
// pre-converted rune slices (callers that cache rune forms skip the
// UTF-8 decode entirely).
func (s *Scratch) LevenshteinSimBoundedRunes(ra, rb []rune, cutoff float64) float64 {
	la, lb := len(ra), len(rb)
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	if maxLen == 0 {
		return 1
	}
	// sim ≥ cutoff ⟺ dist ≤ (1-cutoff)·maxLen ⟺ dist ≤ maxDist.
	maxDist := maxLen
	if cutoff > 0 {
		maxDist = int((1-cutoff)*float64(maxLen) + 1e-9)
	}
	d := s.boundedLevenshtein(ra, rb, maxDist)
	return 1 - float64(d)/float64(maxLen)
}

// boundedLevenshtein computes the exact edit distance when it is at
// most maxDist, and returns maxDist+1 otherwise. It runs the standard
// two-row dynamic program restricted to the diagonal band of width
// 2·maxDist+1 (cells outside the band cannot lie on a path of cost
// ≤ maxDist) and abandons as soon as a full row exceeds maxDist.
func (s *Scratch) boundedLevenshtein(ra, rb []rune, maxDist int) int {
	la, lb := len(ra), len(rb)
	if la > lb {
		ra, rb = rb, ra
		la, lb = lb, la
	}
	if lb-la > maxDist {
		return maxDist + 1
	}
	if la == 0 {
		return lb
	}
	const inf = 1 << 29
	prev := growInts(&s.prev, lb+1)
	cur := growInts(&s.cur, lb+1)
	for j := 0; j <= lb; j++ {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo := i - maxDist
		if lo < 1 {
			lo = 1
		}
		hi := i + maxDist
		if hi > lb {
			hi = lb
		}
		if lo == 1 {
			if i <= maxDist {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		} else {
			// The cell left of the band is unreachable.
			cur[lo-1] = inf
		}
		best := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := prev[j-1] + cost
			if x := prev[j] + 1; x < d {
				d = x
			}
			if x := cur[j-1] + 1; x < d {
				d = x
			}
			cur[j] = d
			if d < best {
				best = d
			}
		}
		if hi < lb {
			// The next row reads prev[hi+1], which this row never
			// wrote: mark it unreachable rather than leaving stale data.
			cur[hi+1] = inf
		}
		if best > maxDist {
			return maxDist + 1
		}
		prev, cur = cur, prev
	}
	if prev[lb] > maxDist {
		return maxDist + 1
	}
	return prev[lb]
}

// growInts resizes *buf to n ints, reallocating only on growth.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growBools resizes *buf to n cleared bools, reallocating only on
// growth.
func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = false
	}
	return *buf
}

// Jaro returns the Jaro similarity of a and b, computed over reused
// rune and match buffers.
func (s *Scratch) Jaro(a, b string) float64 {
	ra := AppendRunes(s.ra[:0], a)
	rb := AppendRunes(s.rb[:0], b)
	s.ra, s.rb = ra, rb
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
	matchA := growBools(&s.ma, len(ra))
	matchB := growBools(&s.mb, len(rb))
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

// JaroWinkler boosts the Jaro similarity of strings sharing a prefix,
// with the standard scaling factor p=0.1 and max prefix 4.
func (s *Scratch) JaroWinkler(a, b string) float64 {
	j := s.Jaro(a, b)
	prefix := 0
	ra, rb := s.ra, s.rb
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}
