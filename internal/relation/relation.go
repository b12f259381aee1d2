// Package relation implements in-memory relations (tables): a schema
// plus a list of rows of values. Relations are the unit of exchange
// between HumMer's pipeline phases.
package relation

import (
	"fmt"
	"sort"
	"strings"

	"hummer/internal/schema"
	"hummer/internal/value"
)

// Row is one tuple. Its length always equals the owning relation's
// schema length.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// With returns a copy of the row with v appended, in one allocation.
func (r Row) With(v value.Value) Row { return append(append(make(Row, 0, len(r)+1), r...), v) }

// Equal reports whether two rows are value-wise equal.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Hash combines the value hashes of the row.
func (r Row) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range r {
		h = (h ^ v.Hash()) * 1099511628211
	}
	return h
}

// Relation is an in-memory table. Rows are stored in insertion order.
type Relation struct {
	name   string
	schema *schema.Schema
	rows   []Row
}

// New creates an empty relation with the given name and schema.
func New(name string, s *schema.Schema) *Relation {
	return &Relation{name: name, schema: s}
}

// NewSized is New with room for n rows: appending up to n rows
// allocates the row slice once.
func NewSized(name string, s *schema.Schema, n int) *Relation {
	return &Relation{name: name, schema: s, rows: make([]Row, 0, n)}
}

// Name returns the relation's name (usually the source alias).
func (r *Relation) Name() string { return r.name }

// SetName renames the relation.
func (r *Relation) SetName(n string) { r.name = n }

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th row. The returned slice must not be mutated.
func (r *Relation) Row(i int) Row { return r.rows[i] }

// Rows returns the underlying row slice. Callers must not mutate it.
func (r *Relation) Rows() []Row { return r.rows }

// Append adds a row. It returns an error when the arity does not match
// the schema.
func (r *Relation) Append(row Row) error {
	if len(row) != r.schema.Len() {
		return fmt.Errorf("relation %s: row arity %d does not match schema arity %d",
			r.name, len(row), r.schema.Len())
	}
	r.rows = append(r.rows, row)
	return nil
}

// MustAppend is Append that panics on arity mismatch. Use in tests and
// generators where arity is statically correct.
func (r *Relation) MustAppend(row Row) {
	if err := r.Append(row); err != nil {
		panic(err)
	}
}

// AppendText parses each cell with value.Parse and appends the row.
func (r *Relation) AppendText(cells ...string) error {
	row := make(Row, len(cells))
	for i, c := range cells {
		row[i] = value.Parse(c)
	}
	return r.Append(row)
}

// Value returns the cell at row i, column named col.
func (r *Relation) Value(i int, col string) value.Value {
	return r.rows[i][r.schema.MustLookup(col)]
}

// Clone performs a deep copy of the relation (rows are copied; values
// are immutable so cells are shared).
func (r *Relation) Clone() *Relation {
	c := New(r.name, r.schema)
	c.rows = make([]Row, len(r.rows))
	for i, row := range r.rows {
		c.rows[i] = row.Clone()
	}
	return c
}

// WithSchema returns a shallow relation view with a replacement schema
// of identical arity (used after renaming columns).
func (r *Relation) WithSchema(s *schema.Schema) (*Relation, error) {
	if s.Len() != r.schema.Len() {
		return nil, fmt.Errorf("relation %s: schema arity %d != %d", r.name, s.Len(), r.schema.Len())
	}
	return &Relation{name: r.name, schema: s, rows: r.rows}, nil
}

// Sort orders rows by the named columns ascending, using value.Compare.
// The sort is stable.
func (r *Relation) Sort(cols ...string) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.schema.MustLookup(c)
	}
	sort.SliceStable(r.rows, func(a, b int) bool {
		for _, j := range idx {
			if c := r.rows[a][j].Compare(r.rows[b][j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// String renders the relation as an aligned text table, handy for demos
// and golden tests.
func (r *Relation) String() string {
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.rows))
	for i, row := range r.rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := v.String()
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d rows]\n", r.name, len(r.rows))
	writeRow := func(vals []string) {
		for j, s := range vals {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for j, w := range widths {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Builder offers fluent construction of relations for tests, examples
// and generators.
type Builder struct {
	rel *Relation
	err error
}

// NewBuilder starts a builder for a relation with untyped columns.
func NewBuilder(name string, cols ...string) *Builder {
	return &Builder{rel: New(name, schema.FromNames(cols...))}
}

// Typed starts a builder over an explicit schema.
func Typed(name string, s *schema.Schema) *Builder {
	return &Builder{rel: New(name, s)}
}

// Add appends a row of already-typed values.
func (b *Builder) Add(vals ...value.Value) *Builder {
	if b.err == nil {
		b.err = b.rel.Append(Row(vals))
	}
	return b
}

// AddText appends a row parsed from raw strings.
func (b *Builder) AddText(cells ...string) *Builder {
	if b.err == nil {
		b.err = b.rel.AppendText(cells...)
	}
	return b
}

// Build returns the relation, panicking if any append failed; builders
// are used in code where arity is static.
func (b *Builder) Build() *Relation {
	if b.err != nil {
		panic(b.err)
	}
	return b.rel
}
