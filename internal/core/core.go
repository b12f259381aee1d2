// Package core implements the HumMer pipeline of Fig. 2: given a list
// of source aliases, it (1) loads each source's relational form from
// the metadata repository, (2) bridges schematic heterogeneity with
// DUMAS instance-based schema matching, (3) transforms the sources
// (rename to the preferred schema, add sourceID, full outer union),
// (4) detects duplicates and appends an objectID column, and
// (5) fuses duplicates with conflict resolution.
//
// The demo's wizard steps ("adjust matching", "adjust duplicate
// definition", "confirm duplicates", "specify resolution functions")
// are exposed as optional hook functions on the Pipeline; when a hook
// is nil the fully automatic behaviour of the paper applies.
package core

import (
	"context"
	"fmt"
	"strings"

	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/engine"
	"hummer/internal/expr"
	"hummer/internal/faultinject"
	"hummer/internal/fusion"
	"hummer/internal/metadata"
	"hummer/internal/obs"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/value"
)

// SourceIDColumn is the provenance column the transformation phase
// adds to every source (paper §2.2).
const SourceIDColumn = dupdetect.SourceIDColumn

// Options configures one pipeline run.
type Options struct {
	// FuseBy lists the object-identifier attributes (in the preferred
	// schema's names). Empty with ExactGrouping=false means: rely
	// entirely on duplicate detection.
	FuseBy []string
	// ExactGrouping skips duplicate detection and groups exactly on
	// the FuseBy attributes — the pure Fuse By semantics of [2].
	// Requires FuseBy.
	ExactGrouping bool
	// Where filters the merged table before duplicate detection (the
	// query's WHERE clause, standard SQL ordering: predicates before
	// grouping). Nil means no filter.
	Where expr.Expr
	// Rules maps columns to resolution specs (wizard step 5); unruled
	// columns resolve with Default (Coalesce when zero).
	Rules map[string]fusion.Spec
	// Default is the resolution spec for unruled columns.
	Default fusion.Spec
	// Columns selects and orders output columns; empty means all data
	// columns.
	Columns []string
	// Items explicitly lists the output columns with per-item
	// resolution and output names (supports selecting one column
	// several times); see fusion.Options.
	Items []fusion.OutputItem
	// IncludeRest, with Items, appends the remaining data columns.
	IncludeRest bool
	// KeepBookkeeping retains sourceID/objectID in the output.
	KeepBookkeeping bool
	// Match tunes DUMAS.
	Match dumas.Config
	// Detect tunes duplicate detection.
	Detect dupdetect.Config
	// Parallelism is the unified query-level parallelism knob: the
	// default worker count for the match and detect phases when their
	// configs leave Parallelism at 0. A phase config's own setting
	// always wins. 0 defers to each phase's default (GOMAXPROCS).
	// Results are byte-identical at every setting.
	Parallelism int
}

// Result carries every intermediate of the run, mirroring the demo's
// step-by-step visualization.
type Result struct {
	// Sources are the loaded relational forms, in query order.
	Sources []*relation.Relation
	// Matches holds the DUMAS result for each source after the first
	// (aligned with Sources[1:]).
	Matches []*dumas.Result
	// Renamings records the applied column renamings per source after
	// the first (old name → preferred name).
	Renamings []map[string]string
	// Merged is the full outer union of the transformed sources,
	// including the sourceID column.
	Merged *relation.Relation
	// Detection is the duplicate-detection output; nil under
	// ExactGrouping.
	Detection *dupdetect.Result
	// WithObjectID is Merged plus the objectID column; nil under
	// ExactGrouping.
	WithObjectID *relation.Relation
	// Fused is the final clean, consistent result with lineage.
	Fused *fusion.Result
}

// Summary condenses what a pipeline run did — the numbers of the
// demo's step-by-step visualization — without referencing any of the
// intermediate tables, so it can outlive the run (in a slim cache
// entry, a streamed trailer, an API response) at a few dozen bytes.
type Summary struct {
	// Sources is the number of participating sources.
	Sources int `json:"sources"`
	// MergedRows counts the rows of the full outer union the fusion
	// ran over (after the WHERE filter).
	MergedRows int `json:"merged_rows"`
	// Correspondences counts the attribute correspondences DUMAS
	// applied across all sources.
	Correspondences int `json:"correspondences"`
	// Clusters, DuplicatePairs and BorderlinePairs summarize the
	// duplicate detection (zero under ExactGrouping).
	Clusters        int `json:"clusters"`
	DuplicatePairs  int `json:"duplicate_pairs"`
	BorderlinePairs int `json:"borderline_pairs"`
}

// Summary computes the run's summary numbers from the intermediates.
func (r *Result) Summary() *Summary {
	s := &Summary{Sources: len(r.Sources)}
	if r.Merged != nil {
		s.MergedRows = r.Merged.Len()
	}
	for _, m := range r.Matches {
		if m != nil {
			s.Correspondences += len(m.Correspondences)
		}
	}
	if d := r.Detection; d != nil {
		s.Clusters = len(d.Clusters)
		s.DuplicatePairs = len(d.Duplicates)
		s.BorderlinePairs = len(d.Borderline)
	}
	return s
}

// Pipeline wires the components together. Zero-value hooks mean fully
// automatic operation.
type Pipeline struct {
	// Repo resolves source aliases; required.
	Repo *metadata.Repository
	// Registry resolves conflict-resolution functions; nil means the
	// built-in registry.
	Registry *fusion.Registry
	// Cache, when set, is consulted before the expensive phases:
	// DUMAS match results and duplicate-detection results are keyed by
	// the content fingerprints of their input relations plus the phase
	// configuration, so repeated and overlapping queries skip the
	// recomputation entirely. Cached artifacts are shared across
	// queries and must not be mutated.
	Cache *qcache.Cache

	// OnCorrespondences (wizard step 2) may add, drop or rescore the
	// correspondences DUMAS proposed for one source before they are
	// applied.
	OnCorrespondences func(sourceAlias string, proposed []dumas.Correspondence) []dumas.Correspondence
	// OnAttributes (wizard step 3) may adjust the attributes
	// duplicate detection will compare.
	OnAttributes func(proposed []string) []string
	// OnDuplicates (wizard step 4) may adjust the detected clustering
	// by returning replacement object ids (same length as rows);
	// returning nil keeps the detection result. det may be a cached
	// artifact shared across queries and must be treated as
	// read-only — adjust by returning ids, never by mutating det.
	OnDuplicates func(det *dupdetect.Result, merged *relation.Relation) []int
}

// RunContext executes the full pipeline over the aliased sources,
// honoring ctx through every phase: source loading checks it between
// sources, schema matching and duplicate detection propagate it into
// their sharded inner loops (including through the artifact cache's
// singleflight), and the phase boundaries re-check it, so a cancelled
// query aborts promptly with ctx's error, no goroutines left behind
// and no partial result. A run that completes is byte-identical to an
// uncancelled one.
func (p *Pipeline) RunContext(ctx context.Context, aliases []string, opts Options) (*Result, error) {
	if p.Repo == nil {
		return nil, fmt.Errorf("core: pipeline has no metadata repository")
	}
	if len(aliases) == 0 {
		return nil, fmt.Errorf("core: no sources given")
	}
	if opts.ExactGrouping && len(opts.FuseBy) == 0 {
		return nil, fmt.Errorf("core: ExactGrouping requires FuseBy attributes")
	}
	reg := p.Registry
	if reg == nil {
		reg = fusion.NewRegistry()
	}
	// Unified parallelism: a phase config's own Parallelism wins;
	// zero inherits the query-level knob. Applying the default here —
	// before the phases fingerprint their configs for the cache —
	// keeps the effective worker count and the cache key consistent.
	if opts.Parallelism != 0 {
		if opts.Match.Parallelism == 0 {
			opts.Match.Parallelism = opts.Parallelism
		}
		if opts.Detect.Parallelism == 0 {
			opts.Detect.Parallelism = opts.Parallelism
		}
	}
	ctx, psp := obs.StartSpan(ctx, "pipeline")
	defer psp.End()
	psp.SetInt("sources", len(aliases))

	res := &Result{}
	// Step 1: load the relational form of every source.
	_, lsp := obs.StartSpan(ctx, "load")
	defer lsp.End()
	rows := 0
	for _, a := range aliases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel, err := p.Repo.Get(a)
		if err != nil {
			return nil, err
		}
		rows += rel.Len()
		res.Sources = append(res.Sources, rel)
	}
	lsp.SetInt("rows", rows)
	lsp.End()

	// Steps 2+3: schema matching and transformation.
	if err := p.matchAndTransform(ctx, res, opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Apply the WHERE predicate to the merged table (before grouping,
	// standard SQL ordering).
	if opts.Where != nil {
		filtered, err := engine.MaterializeContext(ctx, "merged",
			engine.NewFilter(engine.NewScan(res.Merged), opts.Where))
		if err != nil {
			return nil, fmt.Errorf("core: WHERE: %w", err)
		}
		res.Merged = filtered
	}

	// Step 4: duplicate detection (skipped under exact grouping).
	groupBy := opts.FuseBy
	fuseInput := res.Merged
	if !opts.ExactGrouping {
		detectCfg := opts.Detect
		if len(detectCfg.Attributes) == 0 {
			// The FUSE BY attributes *define* the object identifier
			// (paper §2.1), so they alone form the duplicate
			// definition; without FUSE BY the heuristics choose.
			var attrs []string
			if len(opts.FuseBy) > 0 {
				attrs = mergeAttrs(opts.FuseBy, nil)
			} else {
				attrs = dupdetect.SelectAttributes(res.Merged)
			}
			if p.OnAttributes != nil {
				attrs = p.OnAttributes(attrs)
			}
			detectCfg.Attributes = attrs
		}
		det, err := p.detect(ctx, res.Merged, detectCfg)
		if err != nil {
			return nil, err
		}
		if p.OnDuplicates != nil {
			if ids := p.OnDuplicates(det, res.Merged); ids != nil {
				if len(ids) != res.Merged.Len() {
					return nil, fmt.Errorf("core: OnDuplicates returned %d ids for %d rows",
						len(ids), res.Merged.Len())
				}
				det = &dupdetect.Result{ObjectIDs: ids, SelectedAttributes: det.SelectedAttributes}
			}
		}
		res.Detection = det
		withID, err := dupdetect.AppendObjectID(res.Merged, det)
		if err != nil {
			return nil, err
		}
		res.WithObjectID = withID
		fuseInput = withID
		groupBy = []string{dupdetect.ObjectIDColumn}
	}

	// Step 5: conflict resolution / fusion.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, fsp := obs.StartSpan(ctx, "fuse")
	defer fsp.End()
	fsp.SetInt("input_rows", fuseInput.Len())
	fused, err := fusion.Fuse(fuseInput, reg, fusion.Options{
		GroupBy:         groupBy,
		Items:           opts.Items,
		IncludeRest:     opts.IncludeRest,
		Rules:           opts.Rules,
		Default:         opts.Default,
		Columns:         opts.Columns,
		KeepBookkeeping: opts.KeepBookkeeping,
	})
	if err != nil {
		return nil, err
	}
	fsp.SetInt("rows", fused.Rel.Len())
	fsp.End()
	res.Fused = fused
	return res, nil
}

// match runs DUMAS schema matching, consulting the artifact cache
// when one is installed: the key is the content fingerprint of both
// relations plus the match configuration, so any data or config
// change misses while a repeated or overlapping query hits. The
// singleflight inside the cache makes a thundering herd of identical
// queries compute the artifact once; a cancelled caller stops waiting
// without disturbing the computation, and a cancelled leader's
// abandoned entry is re-elected by the remaining waiters.
func (p *Pipeline) match(ctx context.Context, left, right *relation.Relation, cfg dumas.Config) (*dumas.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	sp.SetStr("source", right.Name())
	if err := faultinject.Hit(faultinject.SiteCoreMatch); err != nil {
		return nil, err
	}
	if p.Cache == nil {
		return dumas.MatchContext(ctx, left, right, cfg)
	}
	key := qcache.MatchKey(qcache.FingerprintRelation(left), qcache.FingerprintRelation(right), cfg)
	computed := false
	v, _, err := p.Cache.DoContext(ctx, key, func(ctx context.Context) (any, error) {
		computed = true
		return dumas.MatchContext(ctx, left, right, cfg)
	})
	if err != nil {
		return nil, err
	}
	// The compute closure runs in the leader's goroutine with the
	// leader's ctx, so the dumas sub-spans attach here exactly when
	// this query did the work; a served query shows only the wait.
	if computed {
		sp.SetStr("cache", "miss")
	} else {
		sp.SetStr("cache", "hit")
	}
	return v.(*dumas.Result), nil
}

// detect runs duplicate detection, consulting the artifact cache when
// one is installed; the key covers the merged relation's content (so
// WHERE-filtered variants key separately) and the full detection
// configuration including the resolved attribute selection.
func (p *Pipeline) detect(ctx context.Context, rel *relation.Relation, cfg dupdetect.Config) (*dupdetect.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "detect")
	defer sp.End()
	sp.SetInt("rows", rel.Len())
	if err := faultinject.Hit(faultinject.SiteCoreDetect); err != nil {
		return nil, err
	}
	if p.Cache == nil {
		return dupdetect.DetectContext(ctx, rel, cfg)
	}
	key := qcache.DetectKey(qcache.FingerprintRelation(rel), cfg)
	computed := false
	v, _, err := p.Cache.DoContext(ctx, key, func(ctx context.Context) (any, error) {
		computed = true
		return dupdetect.DetectContext(ctx, rel, cfg)
	})
	if err != nil {
		return nil, err
	}
	if computed {
		sp.SetStr("cache", "miss")
	} else {
		sp.SetStr("cache", "hit")
	}
	return v.(*dupdetect.Result), nil
}

// matchAndTransform aligns every source after the first with the
// preferred schema (the first source, per the paper: "favoring the
// first source mentioned in the query"), renames matched attributes,
// adds the sourceID column and computes the full outer union.
func (p *Pipeline) matchAndTransform(ctx context.Context, res *Result, opts Options) error {
	first := res.Sources[0]
	transformed := []*relation.Relation{first}
	// The reference grows as sources are aligned, so later sources can
	// also match attributes the preferred schema lacks.
	reference := first

	for _, src := range res.Sources[1:] {
		if err := ctx.Err(); err != nil {
			return err
		}
		var corrs []dumas.Correspondence
		var mres *dumas.Result
		if reference.Len() > 0 && src.Len() > 0 {
			var err error
			mres, err = p.match(ctx, reference, src, opts.Match)
			if err != nil {
				return fmt.Errorf("core: matching %q against %q: %w", src.Name(), reference.Name(), err)
			}
			corrs = mres.Correspondences
		} else {
			mres = &dumas.Result{}
		}
		if p.OnCorrespondences != nil {
			// The hook's contract invites in-place adjustment, but a
			// cached mres is shared across queries: hand the hook its
			// own copy so it can never poison the cached artifact.
			corrs = p.OnCorrespondences(src.Name(), append([]dumas.Correspondence(nil), corrs...))
		}
		res.Matches = append(res.Matches, mres)

		renaming := buildRenaming(src, corrs)
		res.Renamings = append(res.Renamings, renaming)
		aligned, err := applyRenaming(src, renaming)
		if err != nil {
			return err
		}
		transformed = append(transformed, aligned)

		ref, err := outerUnion(ctx, "reference", transformed)
		if err != nil {
			return err
		}
		reference = ref
	}

	// Add sourceID to each transformed source, then outer union.
	mctx, msp := obs.StartSpan(ctx, "merge")
	defer msp.End()
	withSrc := make([]*relation.Relation, len(transformed))
	for i, rel := range transformed {
		w, err := addSourceID(rel)
		if err != nil {
			return err
		}
		withSrc[i] = w
	}
	merged, err := outerUnion(mctx, "merged", withSrc)
	if err != nil {
		return err
	}
	msp.SetInt("rows", merged.Len())
	msp.End()
	res.Merged = merged
	return nil
}

// buildRenaming converts correspondences into an old→new column map
// for the non-preferred source. Renames that would collide with
// another column of the same source are skipped — the demo would show
// them for manual resolution.
func buildRenaming(src *relation.Relation, corrs []dumas.Correspondence) map[string]string {
	renaming := map[string]string{}
	taken := map[string]bool{}
	for _, n := range src.Schema().Names() {
		taken[strings.ToLower(n)] = true
	}
	for _, c := range corrs {
		if strings.EqualFold(c.RightCol, c.LeftCol) {
			continue // already aligned
		}
		if taken[strings.ToLower(c.LeftCol)] {
			continue // would collide inside this source
		}
		renaming[c.RightCol] = c.LeftCol
		taken[strings.ToLower(c.LeftCol)] = true
	}
	return renaming
}

func applyRenaming(src *relation.Relation, renaming map[string]string) (*relation.Relation, error) {
	s := src.Schema()
	for old, new := range renaming {
		var err error
		s, err = s.Rename(old, new)
		if err != nil {
			return nil, fmt.Errorf("core: renaming %q→%q in %q: %w", old, new, src.Name(), err)
		}
	}
	return src.WithSchema(s)
}

// addSourceID prepends nothing and appends a sourceID column holding
// the relation's alias, unless the column already exists.
func addSourceID(rel *relation.Relation) (*relation.Relation, error) {
	if rel.Schema().Has(SourceIDColumn) {
		return rel, nil
	}
	s, err := rel.Schema().Append(schema.Column{Name: SourceIDColumn, Type: value.KindString, Source: rel.Name()})
	if err != nil {
		return nil, err
	}
	out := relation.New(rel.Name(), s)
	alias := value.NewString(rel.Name())
	for i := 0; i < rel.Len(); i++ {
		if err := out.Append(rel.Row(i).With(alias)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func outerUnion(ctx context.Context, name string, rels []*relation.Relation) (*relation.Relation, error) {
	ops := make([]engine.Operator, len(rels))
	for i, r := range rels {
		ops[i] = engine.NewScan(r)
	}
	u, err := engine.NewOuterUnion(ops...)
	if err != nil {
		return nil, err
	}
	return engine.MaterializeContext(ctx, name, u)
}

// mergeAttrs unions two attribute lists preserving order.
func mergeAttrs(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range append(append([]string{}, a...), b...) {
		key := strings.ToLower(x)
		if !seen[key] {
			seen[key] = true
			out = append(out, x)
		}
	}
	return out
}
