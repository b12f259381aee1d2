// Package plan turns parsed statements into executions. Fuse By
// statements run through the core pipeline (schema matching →
// duplicate detection → conflict resolution); plain SELECT statements
// run directly on the relational engine. Both then share one
// relational tail: HAVING, ORDER BY and LIMIT run on the engine's
// Filter / Sort / Limit operators (buildTail), with a fused result's
// lineage carried through them, and both stream through one pull
// cursor (Rows) on the consumer's goroutine.
//
// With a Cache installed the executor maintains two tiers: parsed
// plans keyed by statement text, and — the warmest tier — complete
// fused query results keyed by (statement text, source fingerprints,
// configuration fingerprint). A fused-tier hit skips schema matching,
// duplicate detection, merging and fusion entirely; only the parse
// (itself cached) runs. QueryContext propagates a context through
// every phase so a hung client or an elapsed timeout cancels the
// pipeline mid-flight.
package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hummer/internal/core"
	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/engine"
	"hummer/internal/expr"
	"hummer/internal/faultinject"
	"hummer/internal/fusion"
	"hummer/internal/lineage"
	"hummer/internal/metadata"
	"hummer/internal/obs"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/sql"
	"hummer/internal/value"
)

// QueryResult is the outcome of executing one statement. Its rows are
// read-only: they may be shared with the cache, and plain SQL passes
// rows through where it can, so a result row may be the registered
// relation's own row (under WHERE, SELECT * or a plain rename) or a
// slice of a slab shared with neighbouring join rows. Copy a row
// (Row.Clone) before changing it.
type QueryResult struct {
	// Rel is the result table.
	Rel *relation.Relation
	// Lineage carries per-cell provenance for fusion queries, one
	// entry per Rel row in Rel's order; nil for plain SQL. Omitted
	// when the query opted out (ExecOptions.NoLineage).
	Lineage [][]lineage.Set
	// Pipeline exposes the intermediate phases for fusion queries.
	// Guaranteed non-nil (for fusion statements) only when the query
	// opted in with ExecOptions.Trace: results served from the fused
	// cache tier are slim — they carry no intermediates — and NoTrace
	// drops the intermediates even from a computed run. A zero-option
	// cold run still populates it, as it always has.
	Pipeline *core.Result
	// Summary condenses what the pipeline did for fusion queries —
	// always present for them, even on slim cache hits; nil for plain
	// SQL. It is the cheap substitute for Pipeline when only the
	// numbers are needed.
	Summary *core.Summary
}

// ExecOptions are the per-query execution options — the plan-layer
// form of the public API's QueryOption list. The zero value preserves
// the historical behaviour exactly.
type ExecOptions struct {
	// Trace requests the pipeline intermediates: the result's Pipeline
	// is guaranteed for fusion statements. A tracing query bypasses
	// the fused cache tier (slim entries cannot satisfy it) — it
	// neither reads nor writes that tier, though the per-phase
	// match/detect tiers still apply.
	Trace bool
	// NoTrace drops the pipeline intermediates from the result even
	// when a cache-missing run computed them, so large intermediates
	// are never retained for callers that only need the table.
	// Ignored when Trace is set.
	NoTrace bool
	// NoLineage drops the per-cell lineage from the result.
	NoLineage bool
	// Timeout, when positive, bounds the query's execution with its
	// own deadline layered over the caller's context — the per-
	// statement deadline of batch execution.
	Timeout time.Duration
	// OnFinish, when set on a streaming execution (StreamContext), is
	// invoked exactly once, on the consumer's goroutine, when the
	// stream's outcome is final — at the end of the drain, on an
	// error, or at Close: the fusion summary (nil for plain SQL or
	// failed pipelines) and the terminal error (nil for a complete
	// drain and for a deliberate early Close). The DB layer hooks its
	// query/error counters here, since a stream's errors surface long
	// after the QueryRows call returned. Ignored by the materialized
	// paths.
	OnFinish func(summary *core.Summary, err error)
}

// Executor runs statements against a metadata repository.
type Executor struct {
	// Repo resolves table aliases. Required.
	Repo *metadata.Repository
	// Registry resolves conflict-resolution functions; nil means
	// built-ins.
	Registry *fusion.Registry
	// Pipeline, when set, is used for fusion queries (lets callers
	// install wizard hooks); nil builds a fresh pipeline from Repo
	// and Registry.
	Pipeline *core.Pipeline
	// Detect is the default duplicate-detection configuration applied
	// to fusion queries (threshold, candidate strategy, parallelism).
	// The zero value means paper-faithful defaults.
	Detect dupdetect.Config
	// Match is the default DUMAS schema-matching configuration applied
	// to fusion queries (duplicates used, candidate strategy,
	// parallelism). The zero value means paper-faithful defaults.
	Match dumas.Config
	// Cache, when set, caches parsed statements by query text and is
	// handed to pipelines built here so the match/detect phases reuse
	// artifacts across queries.
	Cache *qcache.Cache
	// Parallel is the unified parallelism knob (the public API's
	// Config.Parallelism): the default for the match/detect phases
	// when their configs leave Parallelism unset. 0 means GOMAXPROCS;
	// 1 forces sequential.
	// Results are byte-identical at every setting — parallelism is a
	// wall-clock knob only.
	Parallel int
}

// maxCachedPlanBytes bounds the statement text retained as a plan
// cache key: parsing is linear and cheap, so giant statements gain
// nothing from caching, and caching them would let clients pin
// megabytes of query text per cache slot.
const maxCachedPlanBytes = 8 << 10

// QueryContext parses and executes one statement, honoring ctx through
// every pipeline phase. With a Cache installed the parse result is
// cached by query text (statements small enough to be worth
// retaining); each execution receives its own clone, since binding
// mutates the expression trees. It is QueryWith with zero options.
func (e *Executor) QueryContext(ctx context.Context, q string) (*QueryResult, error) {
	return e.QueryWith(ctx, q, ExecOptions{})
}

// QueryWith is QueryContext with per-query execution options: trace
// and lineage projection, and an optional per-statement deadline.
func (e *Executor) QueryWith(ctx context.Context, q string, opt ExecOptions) (*QueryResult, error) {
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	pctx, psp := obs.StartSpan(ctx, "plan")
	stmt, err := e.parse(pctx, q)
	psp.End()
	if err != nil {
		return nil, err
	}
	return e.executeStmt(ctx, stmt, q, opt)
}

// parse returns the parsed statement, consulting the plan cache when
// one is installed (statements small enough to be worth retaining);
// each execution receives its own clone, since binding mutates the
// expression trees.
func (e *Executor) parse(ctx context.Context, q string) (*sql.Stmt, error) {
	if e.Cache != nil && len(q) <= maxCachedPlanBytes {
		// Parsing is fast and never blocks, so the compute ignores ctx;
		// DoContext still lets a cancelled caller stop waiting on a
		// contended key.
		v, _, err := e.Cache.DoContext(ctx, qcache.PlanKey(q), func(context.Context) (any, error) { return sql.Parse(q) })
		if err != nil {
			return nil, err
		}
		return v.(*sql.Stmt).Clone(), nil
	}
	return sql.Parse(q)
}

// executeStmt dispatches a parsed statement; raw is the statement's
// source text, the fused tier's key component.
func (e *Executor) executeStmt(ctx context.Context, stmt *sql.Stmt, raw string, opt ExecOptions) (*QueryResult, error) {
	if e.Repo == nil {
		return nil, fmt.Errorf("plan: executor has no repository")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.Hit(faultinject.SitePlanQuery); err != nil {
		return nil, err
	}
	if stmt.IsFusion() {
		return e.executeFusion(ctx, stmt, raw, opt)
	}
	return e.executePlain(ctx, stmt)
}

// --- Fusion statements ------------------------------------------------------

func (e *Executor) executeFusion(ctx context.Context, stmt *sql.Stmt, raw string, opt ExecOptions) (*QueryResult, error) {
	if len(stmt.Joins) > 0 {
		return nil, fmt.Errorf("plan: JOIN is not supported in FUSE statements; use FUSE FROM")
	}
	if stmt.Distinct {
		// The tail's lineage ordinal (postProcess) makes every row
		// distinct, so DISTINCT would be silently ignored.
		return nil, fmt.Errorf("plan: DISTINCT is not supported in FUSE statements")
	}
	p := e.Pipeline
	if p == nil {
		p = &core.Pipeline{Repo: e.Repo, Registry: e.Registry, Cache: e.Cache}
	}
	aliases := make([]string, len(stmt.Tables))
	for i, t := range stmt.Tables {
		aliases[i] = t.Name
	}

	opts := core.Options{
		FuseBy:      stmt.FuseBy,
		Where:       stmt.Where,
		Detect:      e.Detect,
		Match:       e.Match,
		Parallelism: e.Parallel,
	}
	// SELECT list → fusion output items. The * wildcard appends "all
	// attributes present in the sources" (§2.1) not already selected.
	star := false
	var items []fusion.OutputItem
	for _, it := range stmt.Items {
		if it.Star {
			star = true
			continue
		}
		if it.Agg != "" {
			return nil, fmt.Errorf("plan: aggregate %s(%s) in a FUSE statement; use RESOLVE(%s, %s)",
				it.Agg, it.Col, it.Col, it.Agg)
		}
		if it.Expr != nil {
			return nil, fmt.Errorf("plan: computed expression %s is not supported in a FUSE statement", it.Expr)
		}
		item := fusion.OutputItem{Column: it.Col, As: it.Alias}
		if it.Resolve != nil && it.Resolve.Func != "" {
			item.Spec = fusion.Spec{Name: it.Resolve.Func, Arg: it.Resolve.Arg}
		}
		items = append(items, item)
	}
	if len(items) > 0 {
		opts.Items = items
		opts.IncludeRest = star
	}
	// With only the * wildcard, Items stays empty: all data columns
	// with the default resolution.

	// The fused-result cache tier: the post-processed result, keyed by
	// the raw statement text, the source fingerprints in query order
	// and the configuration fingerprint. A warm query skips matching,
	// detection, merging and fusion entirely. The raw text is the key
	// — not Stmt.String(), whose rendering is not injective (a quoted
	// alias containing ", " renders exactly like two bare items), and
	// two different statements must never share a fused entry. Entries
	// are SLIM: final table, lineage and the precomputed summary, no
	// pipeline intermediates — trace is opt-in per query, and a
	// tracing query (ExecOptions.Trace) bypasses the tier entirely so
	// a slim entry is never asked to satisfy it. Oversized texts also
	// bypass the tier, as do wizard hooks, which can rewrite any
	// intermediate non-deterministically (the per-artifact tiers below
	// still apply). Fingerprinting can fail on an unknown alias — fall
	// through then, so the pipeline reports the real error.
	if e.Cache != nil && len(raw) <= maxCachedPlanBytes && !opt.Trace && !pipelineHooked(p) {
		if key, gens, err := e.fusedKey(raw, aliases, p); err == nil {
			// full is set only when this caller led the computation: the
			// compute closure runs in the leader's own goroutine, so the
			// capture is race-free. The leader keeps the intermediates —
			// a zero-option cold run exposes Pipeline as it always has —
			// while only the slim entry is published to the cache and to
			// piggybacking waiters. On a miss the pipeline spans nest
			// under the cache.fused span.
			var full *QueryResult
			v, err := e.doFresh(ctx, "cache.fused", key, aliases, gens, func(ctx context.Context) (any, error) {
				res, err := e.runFusion(ctx, p, stmt, aliases, opts)
				if err != nil {
					return nil, err
				}
				full = res
				return &QueryResult{Rel: res.Rel, Lineage: res.Lineage, Summary: res.Summary}, nil
			})
			if err != nil {
				return nil, err
			}
			if full != nil {
				return trimResult(full, opt), nil
			}
			// Cached results are shared across queries: callers must
			// treat Rel and Lineage as read-only.
			return trimResult(v.(*QueryResult), opt), nil
		}
	}
	res, err := e.runFusion(ctx, p, stmt, aliases, opts)
	if err != nil {
		return nil, err
	}
	return trimResult(res, opt), nil
}

// trimResult applies the per-query projection options to a computed or
// cached result. Shared cache entries are never mutated: trimming
// copies the head.
func trimResult(res *QueryResult, opt ExecOptions) *QueryResult {
	dropTrace := opt.NoTrace && !opt.Trace && res.Pipeline != nil
	dropLin := opt.NoLineage && res.Lineage != nil
	if !dropTrace && !dropLin {
		return res
	}
	out := *res
	if dropTrace {
		out.Pipeline = nil
	}
	if dropLin {
		out.Lineage = nil
	}
	return &out
}

// errStale marks a computation whose sources were replaced while it
// ran: correct to serve, wrong to cache under the key fingerprinted
// before it.
var errStale = errors.New("plan: sources replaced during computation; result not cacheable")

// sourceVersions returns each alias's content fingerprint and its
// generation, the generation captured *before* the fingerprint: the
// re-check in doFresh then is conservative — a replace racing the
// fingerprint read is always detected. It fails on an unknown alias.
func (e *Executor) sourceVersions(aliases []string) (fps []string, gens []uint64, err error) {
	fps = make([]string, len(aliases))
	gens = make([]uint64, len(aliases))
	for i, a := range aliases {
		gens[i] = e.Repo.Generation(a)
		if fps[i], err = e.Repo.Fingerprint(a); err != nil {
			return nil, nil, err
		}
	}
	return fps, gens, nil
}

// doFresh resolves key through the cache, running compute on a miss,
// and is the one freshness check of the fused and CSE tiers. key names
// the aliases' content at generations gens (from sourceVersions). If a
// generation moved by the time compute finished, compute read newer
// data than the key names, and caching it would serve new-data rows
// under the old fingerprints after a rollback. The value then travels
// with errStale: errors are never cached, yet the cache still hands
// the value to the leader and every waiter, and doFresh serves it — it
// is correct for the data compute saw. A span named span records the
// outcome: miss (this call computed), hit (served from another call's
// computation) or stale.
func (e *Executor) doFresh(ctx context.Context, span string, key qcache.Key, aliases []string, gens []uint64,
	compute func(context.Context) (any, error)) (any, error) {
	cctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	v, hit, err := e.Cache.DoContext(cctx, key, func(ctx context.Context) (any, error) {
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		for i, a := range aliases {
			if e.Repo.Generation(a) != gens[i] {
				return v, errStale
			}
		}
		return v, nil
	})
	switch {
	case errors.Is(err, errStale):
		sp.SetStr("outcome", "stale")
		return v, nil
	case err != nil:
		return nil, err
	case hit:
		sp.SetStr("outcome", "hit")
	default:
		sp.SetStr("outcome", "miss")
	}
	return v, nil
}

// runFusion executes the pipeline and post-processing for one fusion
// statement — the compute function of the fused cache tier.
func (e *Executor) runFusion(ctx context.Context, p *core.Pipeline, stmt *sql.Stmt, aliases []string, opts core.Options) (*QueryResult, error) {
	res, err := p.RunContext(ctx, aliases, opts)
	if err != nil {
		return nil, err
	}
	pctx, psp := obs.StartSpan(ctx, "post")
	out, lin, err := postProcess(pctx, res.Fused.Rel, res.Fused.Lineage, stmt)
	psp.End()
	if err != nil {
		return nil, err
	}
	return &QueryResult{Rel: out, Lineage: lin, Pipeline: res, Summary: res.Summary()}, nil
}

// fusedKey builds the fused-tier cache key for one fusion statement:
// the raw statement text (collision-free, like the plan tier), the
// content fingerprints of the participating sources in query order,
// and the configuration fingerprint — every match/detect knob plus
// the resolution-registry version, so re-registering a function stops
// addressing stale results just like replacing a source does. It also
// returns the sources' generations for doFresh.
func (e *Executor) fusedKey(raw string, aliases []string, p *core.Pipeline) (qcache.Key, []uint64, error) {
	fps, gens, err := e.sourceVersions(aliases)
	if err != nil {
		return qcache.Key{}, nil, err
	}
	var regVersion uint64
	if p.Registry != nil {
		regVersion = p.Registry.Version()
	}
	cfgFP := fmt.Sprintf("%s|%s|reg:%d",
		qcache.FingerprintConfig(e.Match), qcache.FingerprintConfig(e.Detect), regVersion)
	return qcache.FusedKey(raw, fps, cfgFP), gens, nil
}

// pipelineHooked reports whether any wizard hook is installed — hooks
// may adjust intermediates per call, so their results must not be
// shared through the fused cache tier.
func pipelineHooked(p *core.Pipeline) bool {
	return p.OnCorrespondences != nil || p.OnAttributes != nil || p.OnDuplicates != nil
}

// ordinalColumn tags each fused row with its position while the tail
// runs. No SQL identifier can name it, so HAVING and ORDER BY never
// see it.
const ordinalColumn = "\x00ordinal"

// postProcess applies HAVING, ORDER BY and LIMIT to a fused result
// through the operator chain plain SQL uses (buildTail). Lineage rides
// along as a trailing ordinal column: each surviving row maps back to
// its fused row and that row's lineage, so the output holds the fused
// row objects themselves, without the tag.
func postProcess(ctx context.Context, rel *relation.Relation, lin [][]lineage.Set, stmt *sql.Stmt) (*relation.Relation, [][]lineage.Set, error) {
	sch, err := rel.Schema().Append(schema.Column{Name: ordinalColumn, Type: value.KindInt})
	if err != nil {
		return nil, nil, err
	}
	k := rel.Schema().Len()
	tagged := relation.New(rel.Name(), sch)
	cells := make([]value.Value, rel.Len()*(k+1))
	for i, row := range rel.Rows() {
		t := cells[i*(k+1) : (i+1)*(k+1) : (i+1)*(k+1)]
		copy(t, row)
		t[k] = value.NewInt(int64(i))
		tagged.MustAppend(t)
	}
	kept, err := engine.MaterializeContext(ctx, rel.Name(), buildTail(engine.NewScan(tagged), stmt))
	if err != nil {
		return nil, nil, err
	}
	out := relation.New(rel.Name(), rel.Schema())
	var outLin [][]lineage.Set
	for _, t := range kept.Rows() {
		i := int(t[k].Int())
		out.MustAppend(rel.Row(i))
		if lin != nil {
			outLin = append(outLin, lin[i])
		}
	}
	return out, outLin, nil
}

// --- Plain SQL ---------------------------------------------------------------

// executePlain materializes a plain statement's operator tree,
// checking ctx at row strides so a cancelled statement stops
// mid-scan, not only at entry. The materializing path shares eligible
// source subtrees through the CSE tier (share=true): the result was
// going to be materialized anyway, so sharing the subtree is free.
func (e *Executor) executePlain(ctx context.Context, stmt *sql.Stmt) (*QueryResult, error) {
	op, err := e.buildPlain(ctx, stmt, true)
	if err != nil {
		return nil, err
	}
	rel, err := engine.MaterializeContext(ctx, "result", op)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Rel: rel}, nil
}

// buildPlain turns a plain SELECT statement into its (unopened)
// operator tree — shared by the materializing and streaming paths.
// share enables the cross-statement CSE tier for the source subtree
// (see buildSource); the streaming path keeps it off to preserve
// genuine row-at-a-time streaming.
func (e *Executor) buildPlain(ctx context.Context, stmt *sql.Stmt, share bool) (engine.Operator, error) {
	op, err := e.buildSource(ctx, stmt, share)
	if err != nil {
		return nil, err
	}

	hasAgg := false
	for _, it := range stmt.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg || len(stmt.GroupBy) > 0 {
		op, err = buildGroup(op, stmt)
	} else {
		op, err = buildProject(op, stmt)
	}
	if err != nil {
		return nil, err
	}
	return buildTail(op, stmt), nil
}

// buildTail stacks a statement's HAVING, DISTINCT, ORDER BY and LIMIT
// over op — the one relational tail of plain and fused results.
func buildTail(op engine.Operator, stmt *sql.Stmt) engine.Operator {
	if stmt.Having != nil {
		op = engine.NewFilter(op, stmt.Having)
	}
	if stmt.Distinct {
		op = engine.NewDistinct(op)
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]engine.SortKey, len(stmt.OrderBy))
		for i, k := range stmt.OrderBy {
			keys[i] = engine.SortKey{Col: k.Col, Desc: k.Desc}
		}
		op = engine.NewSort(op, keys)
	}
	if stmt.Limit >= 0 {
		op = engine.NewLimit(op, stmt.Limit)
	}
	return op
}

func buildProject(op engine.Operator, stmt *sql.Stmt) (engine.Operator, error) {
	var items []engine.ProjectItem
	for _, it := range stmt.Items {
		switch {
		case it.Star:
			for _, n := range op.Schema().Names() {
				items = append(items, engine.ProjectItem{Expr: expr.NewCol(n), As: n})
			}
		case it.Resolve != nil:
			return nil, fmt.Errorf("plan: RESOLVE(%s) requires FUSE BY", it.Col)
		case it.Expr != nil:
			items = append(items, engine.ProjectItem{Expr: it.Expr, As: it.OutName()})
		default:
			items = append(items, engine.ProjectItem{Expr: expr.NewCol(it.Col), As: it.OutName()})
		}
	}
	return engine.NewProject(op, items), nil
}

func buildGroup(op engine.Operator, stmt *sql.Stmt) (engine.Operator, error) {
	var specs []engine.AggSpec
	var outCols []string // post-group projection order
	for _, it := range stmt.Items {
		switch {
		case it.Star:
			return nil, fmt.Errorf("plan: * cannot be combined with GROUP BY")
		case it.Resolve != nil:
			return nil, fmt.Errorf("plan: RESOLVE(%s) requires FUSE BY", it.Col)
		case it.Expr != nil:
			return nil, fmt.Errorf("plan: computed expression %s cannot be combined with GROUP BY", it.Expr)
		case it.Agg != "":
			f, ok := engine.LookupAgg(it.Agg)
			if !ok {
				return nil, fmt.Errorf("plan: unknown aggregate %q", it.Agg)
			}
			specs = append(specs, engine.AggSpec{Factory: f, Col: it.Col, As: it.OutName()})
			outCols = append(outCols, it.OutName())
		default:
			if !contains(stmt.GroupBy, it.Col) {
				return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or an aggregate", it.Col)
			}
			outCols = append(outCols, it.Col)
		}
	}
	g, err := engine.NewGroup(op, stmt.GroupBy, specs)
	if err != nil {
		return nil, err
	}
	// Reorder to the select-list order.
	return engine.NewProjectCols(g, outCols...), nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// ObjectIDColumn re-exports the detector's column name for callers
// composing custom plans.
const ObjectIDColumn = dupdetect.ObjectIDColumn
