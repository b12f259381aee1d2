// Package assign solves the maximum-weight bipartite matching
// (assignment) problem DUMAS uses to turn an attribute-similarity
// matrix into a set of 1:1 correspondences.
//
// MaxWeight implements the O(n³) Hungarian algorithm (Jonker-style
// potentials) on a rectangular weight matrix; Greedy is the simpler
// baseline kept for the D5 ablation.
package assign

import "math"

// Pair is one matched (row, col) pair of the assignment.
type Pair struct {
	Row, Col int
	Weight   float64
}

// MaxWeight computes a maximum-weight matching of the rectangular
// matrix w (rows × cols). Pairs with non-positive weight are excluded
// from the result: matching nothing is always allowed and weights are
// similarities, so a zero-weight pairing carries no information.
//
// The input is taken as-is from similarity computations, so MaxWeight
// is defensive about it: ragged rows are treated as padded with zeros
// to the widest row, and non-finite weights (NaN, ±Inf) are treated as
// 0 — no information. NaN in particular must never reach the Hungarian
// solver: its comparisons are all false, which would stall the
// augmenting-path search forever.
func MaxWeight(w [][]float64) []Pair {
	n := len(w)
	if n == 0 {
		return nil
	}
	m := 0
	for i := range w {
		if len(w[i]) > m {
			m = len(w[i])
		}
	}
	if m == 0 {
		return nil
	}
	weight := func(i, j int) float64 {
		if j >= len(w[i]) {
			return 0
		}
		x := w[i][j]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	// Pad to a square cost matrix for the Hungarian solver; padding
	// cells have weight 0, i.e. "unmatched".
	dim := n
	if m > dim {
		dim = m
	}
	// Hungarian minimizes cost; convert similarity to cost by
	// subtracting from the maximum weight.
	maxW := 0.0
	for i := range w {
		for j := range w[i] {
			if x := weight(i, j); x > maxW {
				maxW = x
			}
		}
	}
	cost := make([][]float64, dim)
	for i := range cost {
		cost[i] = make([]float64, dim)
		for j := range cost[i] {
			if i < n && j < m {
				cost[i][j] = maxW - weight(i, j)
			} else {
				cost[i][j] = maxW
			}
		}
	}
	rowOf := hungarian(cost)
	var pairs []Pair
	for j, i := range rowOf {
		if i < n && j < m && weight(i, j) > 0 {
			pairs = append(pairs, Pair{Row: i, Col: j, Weight: weight(i, j)})
		}
	}
	return pairs
}

// hungarian solves the square min-cost assignment; it returns, for each
// column, the assigned row. Implementation follows the standard
// potential-based shortest augmenting path formulation (e-maxx),
// using 1-based internal arrays.
func hungarian(cost [][]float64) []int {
	n := len(cost)
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row assigned to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	rowOf := make([]int, n)
	for j := 1; j <= n; j++ {
		rowOf[j-1] = p[j] - 1
	}
	return rowOf
}

// Greedy computes a matching by repeatedly taking the highest-weight
// remaining cell. It is the greedy ablation baseline for MaxWeight:
// fast, but not optimal.
func Greedy(w [][]float64) []Pair {
	n := len(w)
	if n == 0 {
		return nil
	}
	m := 0
	for i := range w {
		if len(w[i]) > m {
			m = len(w[i])
		}
	}
	usedRow := make([]bool, n)
	usedCol := make([]bool, m)
	var pairs []Pair
	for {
		bi, bj, bw := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if usedRow[i] {
				continue
			}
			for j := 0; j < len(w[i]); j++ {
				if usedCol[j] {
					continue
				}
				// NaN compares false and is skipped naturally; ±Inf
				// is "no information", matching MaxWeight's rule.
				if x := w[i][j]; x > bw && !math.IsInf(x, 0) {
					bi, bj, bw = i, j, x
				}
			}
		}
		if bi < 0 {
			return pairs
		}
		usedRow[bi] = true
		usedCol[bj] = true
		pairs = append(pairs, Pair{Row: bi, Col: bj, Weight: bw})
	}
}

// TotalWeight sums the weights of a matching.
func TotalWeight(pairs []Pair) float64 {
	var t float64
	for _, p := range pairs {
		t += p.Weight
	}
	return t
}
