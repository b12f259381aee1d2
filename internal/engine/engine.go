// Package engine is HumMer's relational algebra substrate, replacing
// the XXL cursor library the original Java system used. Operators are
// pull-based (Volcano-style) iterators over rows; MaterializeContext
// drains an operator tree into a relation.
//
// The operator set covers what HumMer's pipeline needs: scan, filter,
// project, rename, cross and hash equi-join, union, full outer union
// (the FUSE FROM combinator), distinct, sort, limit, and grouped
// aggregation.
package engine

import (
	"context"
	"fmt"
	"slices"

	"hummer/internal/expr"
	"hummer/internal/faultinject"
	"hummer/internal/obs"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/value"
)

// Operator is a pull-based row iterator. Open prepares the operator
// (binding expressions, building hash tables); Next returns rows until
// exhaustion. Operators are single-use: re-Open after exhaustion is not
// supported.
type Operator interface {
	// Schema describes the rows this operator produces. Valid after
	// construction (before Open).
	Schema() *schema.Schema
	// Open prepares the operator and its inputs.
	Open() error
	// Next returns the next row, or ok=false at end of input.
	Next() (relation.Row, bool)
}

// materializeStride is how many rows MaterializeContext drains between
// context polls: frequent enough that a cancelled plain-SQL statement
// aborts mid-scan (not only at entry), rare enough that the poll is
// invisible next to the per-row work.
const materializeStride = 256

// MaterializeContext drains op into a named relation, checking ctx
// every few hundred rows so a cancelled or timed-out statement stops
// scanning promptly with ctx's error and no partial result. Blocking
// operators (sort, hash build, cross materialization) do their work
// inside Open/Next, so the poll also covers rows they buffer.
func MaterializeContext(ctx context.Context, name string, op Operator) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	out := relation.New(name, op.Schema())
	for n := 0; ; n++ {
		if n%materializeStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := faultinject.Hit(faultinject.SiteEngineMaterialize); err != nil {
				return nil, err
			}
		}
		row, ok := op.Next()
		if !ok {
			break
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- Scan ---------------------------------------------------------------

// Scan iterates an in-memory relation.
type Scan struct {
	rel *relation.Relation
	pos int
}

// NewScan returns a scan over rel.
func NewScan(rel *relation.Relation) *Scan { return &Scan{rel: rel} }

// Schema returns the relation schema.
func (s *Scan) Schema() *schema.Schema { return s.rel.Schema() }

// Open resets the cursor.
func (s *Scan) Open() error { s.pos = 0; return nil }

// Next yields rows in storage order.
func (s *Scan) Next() (relation.Row, bool) {
	if s.pos >= s.rel.Len() {
		return nil, false
	}
	row := s.rel.Row(s.pos)
	s.pos++
	return row, true
}

// --- Filter -------------------------------------------------------------

// Filter passes rows whose predicate evaluates to TRUE (UNKNOWN and
// FALSE rows are dropped, per SQL WHERE).
type Filter struct {
	in   Operator
	pred expr.Expr
}

// NewFilter wraps in with predicate pred.
func NewFilter(in Operator, pred expr.Expr) *Filter {
	return &Filter{in: in, pred: pred}
}

// Schema passes through the input schema.
func (f *Filter) Schema() *schema.Schema { return f.in.Schema() }

// Open binds the predicate and opens the input.
func (f *Filter) Open() error {
	if err := f.pred.Bind(f.in.Schema()); err != nil {
		return err
	}
	return f.in.Open()
}

// Next yields the next qualifying row.
func (f *Filter) Next() (relation.Row, bool) {
	for {
		row, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if expr.Truthy(f.pred.Eval(row)) {
			return row, true
		}
	}
}

// --- Project ------------------------------------------------------------

// ProjectItem is one output column: an expression and its output name.
type ProjectItem struct {
	Expr expr.Expr
	As   string
}

// Project computes a list of expressions per input row.
type Project struct {
	in    Operator
	items []ProjectItem
	out   *schema.Schema
}

// NewProject builds a projection. Output column types are inferred only
// for bare column references; computed columns are dynamic.
func NewProject(in Operator, items []ProjectItem) *Project {
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		cols[i] = schema.Column{Name: it.As}
		if c, ok := it.Expr.(*expr.Col); ok {
			if j, found := in.Schema().Lookup(c.Name); found {
				cols[i].Type = in.Schema().Col(j).Type
				cols[i].Source = in.Schema().Col(j).Source
			}
		}
	}
	return &Project{in: in, items: items, out: schema.New(cols...)}
}

// NewProjectCols projects bare columns by name.
func NewProjectCols(in Operator, names ...string) *Project {
	items := make([]ProjectItem, len(names))
	for i, n := range names {
		items[i] = ProjectItem{Expr: expr.NewCol(n), As: n}
	}
	return NewProject(in, items)
}

// Schema returns the projected schema.
func (p *Project) Schema() *schema.Schema { return p.out }

// Open binds all expressions and opens the input.
func (p *Project) Open() error {
	for _, it := range p.items {
		if err := it.Expr.Bind(p.in.Schema()); err != nil {
			return err
		}
	}
	return p.in.Open()
}

// Next computes the projected row.
func (p *Project) Next() (relation.Row, bool) {
	row, ok := p.in.Next()
	if !ok {
		return nil, false
	}
	out := make(relation.Row, len(p.items))
	for i, it := range p.items {
		out[i] = it.Expr.Eval(row)
	}
	return out, true
}

// --- Rename -------------------------------------------------------------

// Rename relabels columns without touching rows.
type Rename struct {
	in  Operator
	out *schema.Schema
}

// NewRename applies the old→new name mapping to in's schema. Unmapped
// columns keep their names.
func NewRename(in Operator, mapping map[string]string) (*Rename, error) {
	s := in.Schema()
	for old, new := range mapping {
		var err error
		s, err = s.Rename(old, new)
		if err != nil {
			return nil, err
		}
	}
	return &Rename{in: in, out: s}, nil
}

// Schema returns the renamed schema.
func (r *Rename) Schema() *schema.Schema { return r.out }

// Open opens the input.
func (r *Rename) Open() error { return r.in.Open() }

// Next passes rows through unchanged.
func (r *Rename) Next() (relation.Row, bool) { return r.in.Next() }

// --- Cross join -----------------------------------------------------------

// Cross produces the cartesian product of two inputs. The right input
// is materialized on Open.
type Cross struct {
	left, right Operator
	out         *schema.Schema
	rightRows   []relation.Row
	cur         relation.Row
	ri          int
}

// NewCross builds a cross join; columns of both sides are concatenated
// (right-side duplicates are suffixed with the right operator's index
// by the caller if needed — the planner qualifies names first).
func NewCross(left, right Operator) (*Cross, error) {
	return &Cross{left: left, right: right, out: concatSchema(left, right)}, nil
}

// concatSchema concatenates two operators' schemas, uniquifying
// duplicate column names with "_r" suffixes (the joined right side
// yields Name, Name_r, Name_r_r, ...).
func concatSchema(left, right Operator) *schema.Schema {
	cols := append(left.Schema().Columns(), right.Schema().Columns()...)
	seen := map[string]bool{}
	for i := range cols {
		key := cols[i].Name
		for seen[key] {
			key += "_r"
		}
		seen[key] = true
		cols[i].Name = key
	}
	return schema.New(cols...)
}

// Schema returns the concatenated schema.
func (c *Cross) Schema() *schema.Schema { return c.out }

// Open opens both inputs and materializes the right side.
func (c *Cross) Open() error {
	if err := c.left.Open(); err != nil {
		return err
	}
	if err := c.right.Open(); err != nil {
		return err
	}
	for {
		row, ok := c.right.Next()
		if !ok {
			break
		}
		c.rightRows = append(c.rightRows, row)
	}
	c.ri = len(c.rightRows) // force first left fetch
	return nil
}

// Next yields the next combined row.
func (c *Cross) Next() (relation.Row, bool) {
	for {
		if c.ri < len(c.rightRows) {
			out := make(relation.Row, 0, c.out.Len())
			out = append(out, c.cur...)
			out = append(out, c.rightRows[c.ri]...)
			c.ri++
			return out, true
		}
		row, ok := c.left.Next()
		if !ok {
			return nil, false
		}
		c.cur = row
		c.ri = 0
	}
}

// --- Hash equi-join -------------------------------------------------------

// HashJoin joins two inputs on equality of one column pair. Open
// drains the right (build) input and constructs the hash table
// presized to the build row count; the left (probe) side is pulled one
// row at a time and never materialized as a whole. Output order is
// canonical: left scan order crossed with right insertion order.
type HashJoin struct {
	left, right       Operator
	leftCol, rightCol string
	out               *schema.Schema
	table             map[uint64][]relation.Row
	leftIdx, rightIdx int
	ctx               context.Context // span destination only; nil is fine

	// Probe state.
	ri      int
	cur     relation.Row
	matches []relation.Row
}

// NewHashJoin builds an inner equi-join on leftCol = rightCol.
func NewHashJoin(left, right Operator, leftCol, rightCol string) (*HashJoin, error) {
	if _, ok := left.Schema().Lookup(leftCol); !ok {
		return nil, fmt.Errorf("engine: hash join: no left column %q", leftCol)
	}
	if _, ok := right.Schema().Lookup(rightCol); !ok {
		return nil, fmt.Errorf("engine: hash join: no right column %q", rightCol)
	}
	return &HashJoin{
		left: left, right: right,
		leftCol: leftCol, rightCol: rightCol,
		out: concatSchema(left, right),
	}, nil
}

// SetParallelism has no effect: the join always runs the sequential
// streaming probe. It remains only for callers that still compile
// against it; ROADMAP item 4b retires it.
func (j *HashJoin) SetParallelism(int) {}

// SetSpanContext supplies the context whose trace receives the
// join.build span. Spans are its only use — operators do not poll ctx
// themselves; their callers cancel at materialize/stream strides,
// exactly as for every other operator.
func (j *HashJoin) SetSpanContext(ctx context.Context) { j.ctx = ctx }

// Schema returns the concatenated schema.
func (j *HashJoin) Schema() *schema.Schema { return j.out }

// Open builds the hash table over the right input, presized to the
// build side's row count so a large build never rehashes.
func (j *HashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.leftIdx = j.left.Schema().MustLookup(j.leftCol)
	j.rightIdx = j.right.Schema().MustLookup(j.rightCol)
	var sp *obs.Span // stays nil without SetSpanContext; span methods accept nil
	if j.ctx != nil {
		_, sp = obs.StartSpan(j.ctx, "join.build")
	}
	var rows []relation.Row
	for {
		row, ok := j.right.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	j.table = make(map[uint64][]relation.Row, len(rows))
	for _, row := range rows {
		key := row[j.rightIdx]
		if key.IsNull() {
			continue // NULL never joins
		}
		h := key.Hash()
		j.table[h] = append(j.table[h], row)
	}
	sp.SetInt("rows", len(rows))
	sp.End()
	return nil
}

// Next yields the next matched pair.
func (j *HashJoin) Next() (relation.Row, bool) {
	for {
		if j.ri < len(j.matches) {
			m := j.matches[j.ri]
			j.ri++
			out := make(relation.Row, 0, j.out.Len())
			out = append(out, j.cur...)
			out = append(out, m...)
			return out, true
		}
		row, ok := j.left.Next()
		if !ok {
			return nil, false
		}
		key := row[j.leftIdx]
		if key.IsNull() {
			continue
		}
		j.matches = j.matches[:0]
		for _, cand := range j.table[key.Hash()] {
			if cand[j.rightIdx].Equal(key) {
				j.matches = append(j.matches, cand)
			}
		}
		j.cur = row
		j.ri = 0
	}
}

// --- Union (same-schema) ----------------------------------------------------

// Union concatenates inputs with compatible (equal-arity) schemas,
// keeping duplicates (UNION ALL semantics).
type Union struct {
	ins []Operator
	cur int
}

// NewUnion concatenates the inputs. All inputs must share the first
// input's arity.
func NewUnion(ins ...Operator) (*Union, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("engine: union of zero inputs")
	}
	arity := ins[0].Schema().Len()
	for _, in := range ins[1:] {
		if in.Schema().Len() != arity {
			return nil, fmt.Errorf("engine: union arity mismatch: %d vs %d", in.Schema().Len(), arity)
		}
	}
	return &Union{ins: ins}, nil
}

// Schema returns the first input's schema.
func (u *Union) Schema() *schema.Schema { return u.ins[0].Schema() }

// Open opens all inputs.
func (u *Union) Open() error {
	for _, in := range u.ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Next drains inputs in order.
func (u *Union) Next() (relation.Row, bool) {
	for u.cur < len(u.ins) {
		if row, ok := u.ins[u.cur].Next(); ok {
			return row, true
		}
		u.cur++
	}
	return nil, false
}

// --- Outer union -------------------------------------------------------------

// OuterUnion implements the full outer union used by FUSE FROM: the
// output schema is the union of all input schemas (schema.OuterUnion);
// each input row is padded with NULLs for columns it lacks.
type OuterUnion struct {
	ins    []Operator
	out    *schema.Schema
	aligns [][]int
	cur    int
}

// NewOuterUnion builds the outer union of the inputs.
func NewOuterUnion(ins ...Operator) (*OuterUnion, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("engine: outer union of zero inputs")
	}
	schemas := make([]*schema.Schema, len(ins))
	for i, in := range ins {
		schemas[i] = in.Schema()
	}
	out := schema.OuterUnion(schemas...)
	aligns := make([][]int, len(ins))
	for i, s := range schemas {
		aligns[i] = schema.AlignmentOf(out, s)
	}
	return &OuterUnion{ins: ins, out: out, aligns: aligns}, nil
}

// Schema returns the unified schema.
func (u *OuterUnion) Schema() *schema.Schema { return u.out }

// Open opens all inputs.
func (u *OuterUnion) Open() error {
	for _, in := range u.ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Next yields the next padded row.
func (u *OuterUnion) Next() (relation.Row, bool) {
	for u.cur < len(u.ins) {
		row, ok := u.ins[u.cur].Next()
		if !ok {
			u.cur++
			continue
		}
		align := u.aligns[u.cur]
		out := make(relation.Row, u.out.Len())
		for i, j := range align {
			if j >= 0 {
				out[i] = row[j]
			} else {
				out[i] = value.Null
			}
		}
		return out, true
	}
	return nil, false
}

// --- Distinct ------------------------------------------------------------------

// Distinct removes duplicate rows (hash-based, first occurrence wins).
type Distinct struct {
	in   Operator
	seen map[uint64][]relation.Row
}

// NewDistinct wraps in with duplicate elimination.
func NewDistinct(in Operator) *Distinct { return &Distinct{in: in} }

// Schema passes through.
func (d *Distinct) Schema() *schema.Schema { return d.in.Schema() }

// Open opens the input.
func (d *Distinct) Open() error {
	d.seen = make(map[uint64][]relation.Row)
	return d.in.Open()
}

// Next yields the next previously unseen row.
func (d *Distinct) Next() (relation.Row, bool) {
	for {
		row, ok := d.in.Next()
		if !ok {
			return nil, false
		}
		h := row.Hash()
		dup := false
		for _, prev := range d.seen[h] {
			if prev.Equal(row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], row)
		return row, true
	}
}

// --- Sort -------------------------------------------------------------------------

// SortKey is one ORDER BY term.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort materializes the input and emits rows ordered by the keys.
type Sort struct {
	in   Operator
	keys []SortKey
	rows []relation.Row
	pos  int
}

// NewSort orders in by keys.
func NewSort(in Operator, keys []SortKey) *Sort { return &Sort{in: in, keys: keys} }

// Schema passes through.
func (s *Sort) Schema() *schema.Schema { return s.in.Schema() }

// Open materializes and sorts.
func (s *Sort) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	idx := make([]int, len(s.keys))
	for i, k := range s.keys {
		j, ok := s.in.Schema().Lookup(k.Col)
		if !ok {
			return fmt.Errorf("engine: sort: no column %q", k.Col)
		}
		idx[i] = j
	}
	for {
		row, ok := s.in.Next()
		if !ok {
			break
		}
		s.rows = append(s.rows, row)
	}
	slices.SortStableFunc(s.rows, func(a, b relation.Row) int {
		for i, j := range idx {
			c := a[j].Compare(b[j])
			if s.keys[i].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	return nil
}

// Next yields sorted rows.
func (s *Sort) Next() (relation.Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true
}

// --- Limit ---------------------------------------------------------------------------

// Limit passes at most n rows.
type Limit struct {
	in   Operator
	n    int
	seen int
}

// NewLimit caps output at n rows.
func NewLimit(in Operator, n int) *Limit { return &Limit{in: in, n: n} }

// Schema passes through.
func (l *Limit) Schema() *schema.Schema { return l.in.Schema() }

// Open opens the input.
func (l *Limit) Open() error { l.seen = 0; return l.in.Open() }

// Next yields up to n rows.
func (l *Limit) Next() (relation.Row, bool) {
	if l.seen >= l.n {
		return nil, false
	}
	row, ok := l.in.Next()
	if !ok {
		return nil, false
	}
	l.seen++
	return row, true
}
