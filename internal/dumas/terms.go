package dumas

import (
	"context"
	"math"
	"slices"
	"strings"

	"hummer/internal/obs"
	"hummer/internal/parshard"
	"hummer/internal/relation"
	"hummer/internal/strsim"
)

// Term ids. A match tokenises every cell of both relations once
// (prepare) and interns the tokens into one dictionary that lives for
// the call. Ids follow the terms' sorted string order, so sorting ids
// sorts terms: every term vector, dot product and posting walk visits
// terms in exactly the order strsim.(*Corpus).TermVec and
// strsim.DotTermVecs would, and every float sum runs in the same order.
// Both corpora, one document per tuple for duplicate discovery and one
// per non-NULL cell for the field matrix, are document-frequency counts
// indexed by id.

// side is one relation's cells as term ids. Cell c = row·width + col
// holds ids[start[c]:start[c+1]]; a NULL cell is an empty run. A tuple's
// tokens are the run over its cells, which is exactly
// strsim.Tokenize(tupleText(row)): tupleText joins the non-NULL cells
// with a space, and a space separates tokens.
type side struct {
	rel   *relation.Relation
	width int
	start []int32
	ids   []uint32
	vecs  []termVec // the tuples' TFIDF vectors
}

// tuple returns the token ids of row i.
func (s *side) tuple(i int) []uint32 {
	return s.ids[s.start[i*s.width]:s.start[(i+1)*s.width]]
}

// termVec is a TFIDF vector over term ids: strsim.TermVec with ids in
// place of terms, ids ascending.
type termVec struct {
	ids []uint32
	ws  []float64
}

// dot is strsim.DotTermVecs over ids: the same merge walk, products
// summed in term order, and the same > 1 clamp.
func dot(a, b termVec) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] < b.ids[j]:
			i++
		case a.ids[i] > b.ids[j]:
			j++
		default:
			sum += a.ws[i] * b.ws[j]
			i++
			j++
		}
	}
	return min(sum, 1)
}

// weigh builds the vector of sorted, appending to ids and ws with the
// arithmetic of strsim.(*Corpus).TermVec: (1 + log tf)·idf per distinct
// id, then L2-normalised in id order.
func weigh(sorted []uint32, idf []float64, ids []uint32, ws []float64) termVec {
	var norm float64
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		w := (1 + math.Log(float64(j-i))) * idf[sorted[i]]
		ids = append(ids, sorted[i])
		ws = append(ws, w)
		norm += w * w
		i = j
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for k := range ws {
			ws[k] /= norm
		}
	}
	return termVec{ids: ids, ws: ws}
}

// prepared is one match's text: both relations as term ids, the
// dictionary, and the column corpus's IDF per id.
type prepared struct {
	left, right side
	terms       []string  // id → term
	cellIDF     []float64 // one document per non-NULL cell
	workers     int       // cfg.Parallelism resolved
	preWorkers  int       // workers, or 1 below precomputeMinRows
}

// prepare tokenises and interns every cell of both relations in one
// sequential pass (intern), then builds every tuple's TFIDF vector
// under the tuple corpus, row-sharded. ctx is polled every
// CancelStride rows; on cancellation ctx's error is returned.
func prepare(ctx context.Context, left, right *relation.Relation, cfg Config) (*prepared, error) {
	p := &prepared{
		left:    side{rel: left, width: left.Schema().Len()},
		right:   side{rel: right, width: right.Schema().Len()},
		workers: parshard.Workers(cfg.Parallelism),
	}
	p.preWorkers = p.workers
	if left.Len()+right.Len() < precomputeMinRows {
		p.preWorkers = 1
	}
	_, csp := obs.StartSpan(ctx, "match.corpus")
	defer csp.End()
	csp.SetInt("rows", left.Len()+right.Len())
	csp.SetInt("workers", p.preWorkers)
	tupleIDF, err := p.intern(ctx)
	if err != nil {
		return nil, err
	}
	for _, s := range []*side{&p.left, &p.right} {
		if err := s.vectors(ctx, p.preWorkers, tupleIDF); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// intern tokenises each non-NULL cell of both sides once and gives
// every token an id from one dictionary, in first-seen order. It then
// renumbers the ids into sorted term order and counts document
// frequencies in the tuple corpus and the column corpus. It fills in
// both sides' ids, sets p.terms and p.cellIDF and returns the tuple
// corpus's IDF per id. The pass is sequential: the dictionary lookup
// is most of its cost, and per-shard token lists cost more memory than
// sharding saves time.
func (p *prepared) intern(ctx context.Context) ([]float64, error) {
	dict := map[string]uint32{}
	var terms, toks []string
	var cells int32 // column corpus documents: non-NULL cells
	sides := []*side{&p.left, &p.right}
	for _, s := range sides {
		s.start = make([]int32, s.rel.Len()*s.width+1)
		for i, row := range s.rel.Rows() {
			if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return nil, ctx.Err()
			}
			for j, v := range row {
				if !v.IsNull() {
					cells++
					toks = strsim.AppendTokens(toks[:0], v.Text())
					for _, t := range toks {
						id, ok := dict[t]
						if !ok {
							id = uint32(len(terms))
							dict[t] = id
							terms = append(terms, t)
						}
						s.ids = append(s.ids, id)
					}
				}
				s.start[i*s.width+j+1] = int32(len(s.ids))
			}
		}
	}
	order := make([]uint32, len(terms))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(terms[a], terms[b]) })
	rank := make([]uint32, len(terms))
	p.terms = make([]string, len(terms))
	for k, old := range order {
		rank[old] = uint32(k)
		p.terms[k] = terms[old]
	}
	// Renumber and count; the seen stamps keep a term from counting
	// twice in one document.
	type termStat struct{ tupleDF, cellDF, tupleSeen, cellSeen int32 }
	stats := make([]termStat, len(terms))
	var tuple, cell int32
	for _, s := range sides {
		for i := 0; i < s.rel.Len(); i++ {
			tuple++
			for c := i * s.width; c < (i+1)*s.width; c++ {
				cell++
				for k := s.start[c]; k < s.start[c+1]; k++ {
					id := rank[s.ids[k]]
					s.ids[k] = id
					st := &stats[id]
					if st.tupleSeen != tuple {
						st.tupleSeen = tuple
						st.tupleDF++
					}
					if st.cellSeen != cell {
						st.cellSeen = cell
						st.cellDF++
					}
				}
			}
		}
	}
	tupleIDF := make([]float64, len(terms))
	p.cellIDF = make([]float64, len(terms))
	for id, st := range stats {
		tupleIDF[id] = idf(tuple, st.tupleDF)
		p.cellIDF[id] = idf(cells, st.cellDF)
	}
	return tupleIDF, nil
}

// idf is strsim.(*Corpus).IDF for a term in df of docs documents.
func idf(docs, df int32) float64 {
	return math.Log(1 + float64(docs)/float64(df))
}

// vectors builds every tuple's TFIDF vector under idf, row-sharded. The
// vectors are carved from two flat arrays: row i's vector has at most
// as many entries as the row has tokens, so it fits in the row's token
// span.
func (s *side) vectors(ctx context.Context, workers int, idf []float64) error {
	ids := make([]uint32, len(s.ids))
	ws := make([]float64, len(s.ids))
	s.vecs = make([]termVec, s.rel.Len())
	return parshard.RangesContext(ctx, workers, s.rel.Len(), func(_, lo, hi int) {
		var buf []uint32
		for i := lo; i < hi; i++ {
			if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return
			}
			buf = append(buf[:0], s.tuple(i)...)
			slices.Sort(buf)
			a, b := s.start[i*s.width], s.start[(i+1)*s.width]
			s.vecs[i] = weigh(buf, idf, ids[a:a:b], ws[a:a:b])
		}
	})
}

// cellVec is cell c's strsim.TermVec under the column corpus.
func (p *prepared) cellVec(s *side, c int) strsim.TermVec {
	sorted := slices.Clone(s.ids[s.start[c]:s.start[c+1]])
	slices.Sort(sorted)
	v := weigh(sorted, p.cellIDF, make([]uint32, 0, len(sorted)), make([]float64, 0, len(sorted)))
	terms := make([]string, len(v.ids))
	for k, id := range v.ids {
		terms[k] = p.terms[id]
	}
	return strsim.TermVec{Terms: terms, Ws: v.ws}
}
