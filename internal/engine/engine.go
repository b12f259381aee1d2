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
	"math"
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
	size, _ := countOf(op)
	out := relation.NewSized(name, op.Schema(), size)
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

// countOf reports how many rows op yields in all, if op knows it.
func countOf(op Operator) (int, bool) {
	if c, ok := op.(interface{ count() (int, bool) }); ok {
		return c.count()
	}
	return 0, false
}

// drainRows pulls an opened op dry into a slice sized by countOf.
func drainRows(op Operator) []relation.Row {
	n, _ := countOf(op)
	rows := make([]relation.Row, 0, n)
	for {
		row, ok := op.Next()
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// rowSlab cuts concatenated rows from shared slabs, one allocation per
// slab: slabs double from 16 rows to 256, so a small result holds
// little spare. Rows are three-index slices; appending to one copies.
type rowSlab struct {
	cells []value.Value
	next  int // first free cell
	rows  int // rows cut and not taken back
}

// concat returns a followed by b.
func (s *rowSlab) concat(a, b relation.Row) relation.Row {
	w := len(a) + len(b)
	if len(s.cells)-s.next < w {
		s.cells, s.next = make([]value.Value, w*min(256, max(16, s.rows))), 0
	}
	out := s.cells[s.next : s.next+w : s.next+w]
	s.next += w
	s.rows++
	copy(out, a)
	copy(out[len(a):], b)
	return out
}

// unread takes back the last row cut, w cells wide, once its only
// reader has dropped it: the next row reuses its cells, so the rows a
// WHERE keeps never pin the ones it dropped.
func (s *rowSlab) unread(w int) { s.next -= w; s.rows-- }

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

func (s *Scan) count() (int, bool) { return s.rel.Len(), true }

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
	back interface{ unread() } // in, when it takes dropped rows back
}

// NewFilter wraps in with predicate pred.
func NewFilter(in Operator, pred expr.Expr) *Filter {
	back, _ := in.(interface{ unread() })
	return &Filter{in: in, pred: pred, back: back}
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
		if f.back != nil {
			f.back.unread()
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
	// identity: every item is a bare column at its own input position
	// (SELECT *, or plain renames), so Next passes input rows through.
	identity bool
}

// NewProject builds a projection. Output column types are inferred only
// for bare column references; computed columns are dynamic.
func NewProject(in Operator, items []ProjectItem) *Project {
	cols := make([]schema.Column, len(items))
	identity := len(items) == in.Schema().Len()
	for i, it := range items {
		cols[i] = schema.Column{Name: it.As}
		j := -1
		if c, ok := it.Expr.(*expr.Col); ok {
			if k, found := in.Schema().Lookup(c.Name); found {
				j = k
				cols[i].Type = in.Schema().Col(j).Type
				cols[i].Source = in.Schema().Col(j).Source
			}
		}
		identity = identity && j == i
	}
	return &Project{in: in, items: items, out: schema.New(cols...), identity: identity}
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

func (p *Project) count() (int, bool) { return countOf(p.in) }

// Next computes the projected row; an identity projection returns the
// input row itself.
func (p *Project) Next() (relation.Row, bool) {
	row, ok := p.in.Next()
	if !ok || p.identity {
		return row, ok
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

func (r *Rename) count() (int, bool) { return countOf(r.in) }

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
	slab        rowSlab
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
	c.rightRows = drainRows(c.right)
	c.ri = len(c.rightRows) // force first left fetch
	return nil
}

func (c *Cross) unread() { c.slab.unread(c.out.Len()) }

// Next yields the next combined row.
func (c *Cross) Next() (relation.Row, bool) {
	for {
		if c.ri < len(c.rightRows) {
			c.ri++
			return c.slab.concat(c.cur, c.rightRows[c.ri-1]), true
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
// drains the right (build) input and chains its rows by key hash, in
// build-row order; the left (probe) side is pulled one row at a time
// and never materialized as a whole. Output order is canonical: left
// scan order crossed with right insertion order. Output rows are cut
// from shared slabs (rowSlab).
type HashJoin struct {
	left, right       Operator
	leftCol, rightCol string
	out               *schema.Schema
	// Chain links are build-row positions plus one; 0 ends a chain.
	build             []relation.Row
	head              map[uint64]int32 // key hash → first build row
	next              []int32          // build row → next with its hash
	leftIdx, rightIdx int
	ctx               context.Context // span destination only; nil is fine
	slab              rowSlab

	// Probe state: the probe row and the next link of its chain.
	ri  int32
	cur relation.Row
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

// checkBuildRows rejects a build side too large for int32 chain links.
func checkBuildRows(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("engine: hash join: build side of %d rows exceeds %d", n, math.MaxInt32)
	}
	return nil
}

// Open drains the right input and chains its rows, with the head map
// presized to the build row count so a large build never rehashes.
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
	defer sp.End()
	j.build = drainRows(j.right)
	sp.SetInt("rows", len(j.build))
	if err := checkBuildRows(len(j.build)); err != nil {
		return err
	}
	j.head = make(map[uint64]int32, len(j.build))
	j.next = make([]int32, len(j.build))
	// Linking back to front leaves every chain in build-row order.
	for i := len(j.build) - 1; i >= 0; i-- {
		if key := j.build[i][j.rightIdx]; !key.IsNull() { // NULL never joins
			h := key.Hash()
			j.next[i], j.head[h] = j.head[h], int32(i+1)
		}
	}
	return nil
}

func (j *HashJoin) unread() { j.slab.unread(j.out.Len()) }

// Next yields the next matched pair.
func (j *HashJoin) Next() (relation.Row, bool) {
	for {
		for j.ri > 0 {
			m := j.build[j.ri-1]
			j.ri = j.next[j.ri-1]
			if m[j.rightIdx].Equal(j.cur[j.leftIdx]) {
				return j.slab.concat(j.cur, m), true
			}
		}
		row, ok := j.left.Next()
		if !ok {
			return nil, false
		}
		if key := row[j.leftIdx]; !key.IsNull() {
			j.cur, j.ri = row, j.head[key.Hash()]
		}
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
	s.rows = drainRows(s.in)
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

func (s *Sort) count() (int, bool) { return countOf(s.in) }

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

func (l *Limit) count() (int, bool) { n, ok := countOf(l.in); return max(0, min(l.n, n)), ok }

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
