// Cross-statement common-subexpression elimination (CSE): the light
// planner tier between plan and engine.
//
// A plain statement's operator tree has two parts: the source subtree
// (scans, crosses, joins and the WHERE filter) and the presentation
// above it (projection, grouping, distinct, order, limit). The source
// subtree is where the row volume and the scan/join/filter work live,
// and it recurs: the statements of a batch — and concurrent in-flight
// queries — routinely share a FROM/JOIN/WHERE prefix while differing
// only above it. This tier fingerprints the subtree bottom-up,
// materializes it once through the artifact cache's cancellation-safe
// singleflight, and lets every statement containing the same subtree
// scan the shared intermediate. It is also what keeps a single
// statement from doing the same work twice: any two identical
// subtrees — across statements or within one — resolve to the same
// materialized relation.

package plan

import (
	"context"
	"fmt"

	"hummer/internal/engine"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/sql"
)

// cseEligible reports whether stmt's source subtree does enough work
// to be worth sharing. A bare single-table scan is excluded: the
// registered relation itself already is the shared intermediate, and
// caching a copy would only duplicate it (and tax the genuinely
// streaming paths).
func cseEligible(stmt *sql.Stmt) bool {
	return len(stmt.Joins) > 0 || len(stmt.Tables) > 1 || stmt.Where != nil
}

// sourceAliases lists the aliases the source subtree reads, in plan
// order: FROM tables first, then join build sides.
func sourceAliases(stmt *sql.Stmt) []string {
	out := make([]string, 0, len(stmt.Tables)+len(stmt.Joins))
	for _, t := range stmt.Tables {
		out = append(out, t.Name)
	}
	for _, j := range stmt.Joins {
		out = append(out, j.Table.Name)
	}
	return out
}

// cseKey fingerprints stmt's source subtree bottom-up: each scan
// contributes its source's content fingerprint, each join its
// build-side fingerprint plus the join column pair (the operator
// shape), and the WHERE filter its predicate rendering. The rendering
// is parser-produced SQL (string literals quoted and escaped), so two
// parseable predicates render identically only when they are the same
// predicate. The SELECT list, grouping, ordering and limits sit above
// the subtree and deliberately do not participate — that is what lets
// statements that differ only in presentation share the subtree.
// No configuration can change the subtree's bytes, so none enters the
// key. aliases is sourceAliases(stmt); like fusedKey, cseKey also
// returns their generations for doFresh.
func (e *Executor) cseKey(stmt *sql.Stmt, aliases []string) (qcache.Key, []uint64, error) {
	fps, gens, err := e.sourceVersions(aliases)
	if err != nil {
		return qcache.Key{}, nil, err
	}
	parts := make([]string, 0, len(aliases)+2)
	parts = append(parts, "cse:v1")
	for i := range stmt.Tables {
		parts = append(parts, "scan:"+fps[i])
	}
	for i, j := range stmt.Joins {
		parts = append(parts, fmt.Sprintf("join:%s:%s=%s", fps[len(stmt.Tables)+i], j.LeftCol, j.RightCol))
	}
	if stmt.Where != nil {
		parts = append(parts, "where:"+stmt.Where.String())
	}
	return qcache.CSEKey(parts...), gens, nil
}

// buildSource builds the statement's source subtree. With share set
// (the materializing query path), an eligible subtree resolves
// through the CSE cache tier: repeated and concurrent statements
// containing the same subtree share one materialized intermediate —
// one scan/join/filter pass — via the singleflight, and the rest of
// the plan scans the shared relation (callers must treat it as
// read-only, exactly like a fused-tier hit). The streaming path
// passes share=false: it keeps genuine row-at-a-time streaming off
// the operator tree rather than materializing an intermediate. The
// plan.cse span records the tier outcome (see doFresh).
func (e *Executor) buildSource(ctx context.Context, stmt *sql.Stmt, share bool) (engine.Operator, error) {
	if !share || e.Cache == nil || !cseEligible(stmt) {
		return e.buildSourceTree(ctx, stmt)
	}
	aliases := sourceAliases(stmt)
	key, gens, err := e.cseKey(stmt, aliases)
	if err != nil {
		// Fingerprinting fails on an unknown alias: fall through so
		// the tree build reports the real error.
		return e.buildSourceTree(ctx, stmt)
	}
	v, err := e.doFresh(ctx, "plan.cse", key, aliases, gens, func(ctx context.Context) (any, error) {
		tree, err := e.buildSourceTree(ctx, stmt)
		if err != nil {
			return nil, err
		}
		return engine.MaterializeContext(ctx, "cse", tree)
	})
	if err != nil {
		return nil, err
	}
	return engine.NewScan(v.(*relation.Relation)), nil
}

// buildSourceTree builds the raw (unshared) source subtree: scans and
// crosses over the FROM tables, hash joins, then the WHERE filter.
// Hash joins take the query context for their build spans.
func (e *Executor) buildSourceTree(ctx context.Context, stmt *sql.Stmt) (engine.Operator, error) {
	var op engine.Operator
	for i, t := range stmt.Tables {
		rel, err := e.Repo.Get(t.Name)
		if err != nil {
			return nil, err
		}
		scan := engine.Operator(engine.NewScan(rel))
		if i == 0 {
			op = scan
			continue
		}
		cross, err := engine.NewCross(op, scan)
		if err != nil {
			return nil, err
		}
		op = cross
	}
	if op == nil {
		return nil, fmt.Errorf("plan: no tables")
	}
	for _, j := range stmt.Joins {
		rel, err := e.Repo.Get(j.Table.Name)
		if err != nil {
			return nil, err
		}
		join, err := engine.NewHashJoin(op, engine.NewScan(rel), j.LeftCol, j.RightCol)
		if err != nil {
			return nil, err
		}
		join.SetSpanContext(ctx)
		op = join
	}
	if stmt.Where != nil {
		op = engine.NewFilter(op, stmt.Where)
	}
	return op, nil
}
