// Package lineage tracks the provenance of values through fusion. The
// HumMer demo color-codes each result value by its source relation
// (mixed colors for merged values); this package is the data model
// behind that display: every fused cell carries the set of sources that
// contributed to it.
package lineage

import (
	"sort"
	"strings"
)

// Origin identifies one contributing cell: the source alias and the
// row index within that source.
type Origin struct {
	Source string
	Row    int
}

// Set is an immutable collection of origins. The zero Set is empty
// (meaning "no recorded lineage", e.g. a constant).
type Set struct {
	origins []Origin
}

// From creates a singleton lineage set.
func From(source string, row int) Set {
	return Set{origins: []Origin{{Source: source, Row: row}}}
}

// Merge unions several lineage sets, deduplicating origins.
func Merge(sets ...Set) Set {
	seen := map[Origin]bool{}
	var all []Origin
	for _, s := range sets {
		for _, o := range s.origins {
			if !seen[o] {
				seen[o] = true
				all = append(all, o)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Source != all[j].Source {
			return all[i].Source < all[j].Source
		}
		return all[i].Row < all[j].Row
	})
	return Set{origins: all}
}

// Origins returns the origins in deterministic order.
func (s Set) Origins() []Origin { return append([]Origin(nil), s.origins...) }

// Len returns the number of origins.
func (s Set) Len() int { return len(s.origins) }

// At returns the i-th origin in Origins order, without copying the set.
func (s Set) At(i int) Origin { return s.origins[i] }

// Sources returns the distinct source aliases, sorted.
func (s Set) Sources() []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range s.origins {
		if !seen[o.Source] {
			seen[o.Source] = true
			out = append(out, o.Source)
		}
	}
	sort.Strings(out)
	return out
}

// IsEmpty reports whether no lineage was recorded.
func (s Set) IsEmpty() bool { return len(s.origins) == 0 }

// IsMixed reports whether more than one source contributed — the demo
// renders such values in mixed colors.
func (s Set) IsMixed() bool { return len(s.Sources()) > 1 }

// String renders the lineage as "src1,src2" for annotation purposes.
func (s Set) String() string { return strings.Join(s.Sources(), ",") }
