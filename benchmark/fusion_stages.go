package main

import (
	"context"
	"math/rand"
	"time"

	"hummer/internal/core"
	"hummer/internal/datagen"
	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/eval"
	"hummer/internal/fusion"
	"hummer/internal/metadata"
	"hummer/internal/parshard"
	"hummer/internal/relation"
	"hummer/internal/sql"
	"hummer/internal/strsim"
)

// personRenames relabels every attribute of the right-hand source, so
// schema matching has all five correspondences to find.
var personRenames = map[string]string{
	"Name": "FullName", "Age": "Years", "City": "Town", "Email": "Mail", "Phone": "Tel",
}

// Floors of the correctness gate: the F1 of schema matching against
// the rename map and of duplicate detection against the generator's
// entity ids must not fall below these. On the seed code matching
// scores 1.00 on every seed tried and detection 0.41 to 0.52 (the
// statements fuse by Name alone, and the generator reuses names
// across entities). The floors leave room for a seed's draw, not for a
// change that drops correspondences or clusters.
const (
	matchF1Floor  = 0.80
	detectF1Floor = 0.35
)

// pair is two dirty, differently labelled observations of the same
// entities: the input of every fusion workload.
type pair struct {
	left, right *datagen.Observation
}

// personPair observes n seeded person entities twice with typos and
// NULLs, rows shuffled, the right source fully renamed. mutate, when
// set, edits the clean entities first.
func personPair(seed int64, n int, leftAlias, rightAlias string, mutate func([]datagen.Entity)) pair {
	people := datagen.Persons.Generate(seed, n)
	if mutate != nil {
		mutate(people)
	}
	return pair{
		left: datagen.ObserveShuffled(datagen.Persons, people, datagen.SourceSpec{
			Alias: leftAlias, TypoRate: 0.1, NullRate: 0.05, Seed: seed + 1,
		}),
		right: datagen.ObserveShuffled(datagen.Persons, people, datagen.SourceSpec{
			Alias: rightAlias, Renames: personRenames, TypoRate: 0.1, NullRate: 0.05, Seed: seed + 2,
		}),
	}
}

func (p pair) rows() int { return p.left.Rel.Len() + p.right.Rel.Len() }

// truth is the entity id of every row of the merged table, which is
// the left source's rows followed by the right's.
func (p pair) truth() []int {
	return append(append([]int(nil), p.left.EntityIDs...), p.right.EntityIDs...)
}

func fuseSQL(left, right string) string {
	return "SELECT Name, RESOLVE(Age, max) FUSE FROM " + left + ", " + right + " FUSE BY (Name) ORDER BY Name"
}

// fusionOptions builds the pipeline options plan builds for a fusion
// statement, so the replayed pipeline does the work the public entry
// point did.
func fusionOptions(stmt *sql.Stmt) core.Options {
	opts := core.Options{FuseBy: stmt.FuseBy, Where: stmt.Where}
	for _, it := range stmt.Items {
		if it.Star {
			opts.IncludeRest = true
			continue
		}
		item := fusion.OutputItem{Column: it.Col, As: it.Alias}
		if it.Resolve != nil {
			item.Spec = fusion.Spec{Name: it.Resolve.Func, Arg: it.Resolve.Arg}
		}
		opts.Items = append(opts.Items, item)
	}
	if len(opts.Items) == 0 {
		opts.IncludeRest = false
	}
	return opts
}

// stages is what one replay of a fusion statement measured, stage by
// stage, each stage a direct call of one layer's public function on
// the inputs the operation had.
type stages struct {
	parse, pipeline, match, detect, fuse time.Duration
	// matchSeq and detectSeq are the same calls at Parallelism = 1;
	// zero unless the replay asked for them.
	matchSeq, detectSeq time.Duration

	matchStats  dumas.Stats
	detectStats dupdetect.Stats
	matchF1     float64
	detectF1    float64
	mergedRows  int
	fuseRowsIn  int
	fuseGroups  int
	merged      *relation.Relation
}

// replayFusion replays one fusion statement over (left, right) stage
// by stage under parent, uncached. truth, when non-nil, scores the
// detection; sequential adds the Parallelism = 1 repeats.
func replayFusion(rec *recorder, parent, op int, text string, left, right *relation.Relation, truth []int, sequential bool) (*stages, error) {
	ctx := context.Background()
	st := &stages{}
	var stmt *sql.Stmt
	var err error
	st.parse = rec.timed("sql.parse", parent, op, func() { stmt, err = sql.Parse(text) })
	if err != nil {
		return nil, err
	}
	repo := metadata.NewRepository()
	for _, rel := range []*relation.Relation{left, right} {
		if err := repo.RegisterRelation(rel.Name(), rel); err != nil {
			return nil, err
		}
	}
	reg := fusion.NewRegistry()
	opts := fusionOptions(stmt)
	pipe := &core.Pipeline{Repo: repo, Registry: reg}
	var res *core.Result
	st.pipeline = rec.timed("core.pipeline", parent, op, func() {
		res, err = pipe.RunContext(ctx, []string{left.Name(), right.Name()}, opts)
	})
	if err != nil {
		return nil, err
	}
	st.merged = res.Merged
	st.mergedRows = res.Merged.Len()

	var mres *dumas.Result
	st.match = rec.timed("dumas.match", parent, op, func() {
		mres, err = dumas.MatchContext(ctx, left, right, dumas.Config{})
	})
	if err != nil {
		return nil, err
	}
	st.matchStats = mres.Stats
	st.matchF1 = eval.Matching(mres.Correspondences, personRenames).F1

	detectCfg := dupdetect.Config{Attributes: stmt.FuseBy}
	var det *dupdetect.Result
	st.detect = rec.timed("dupdetect.detect", parent, op, func() {
		det, err = dupdetect.DetectContext(ctx, res.Merged, detectCfg)
	})
	if err != nil {
		return nil, err
	}
	st.detectStats = det.Stats
	if truth != nil && len(truth) == len(det.ObjectIDs) {
		st.detectF1 = eval.DuplicatePairs(det.ObjectIDs, truth).F1
	}

	var fused *fusion.Result
	st.fuseRowsIn = res.WithObjectID.Len()
	st.fuse = rec.timed("fusion.fuse", parent, op, func() {
		fused, err = fusion.Fuse(res.WithObjectID, reg, fusion.Options{
			GroupBy:     []string{dupdetect.ObjectIDColumn},
			Items:       opts.Items,
			IncludeRest: opts.IncludeRest,
		})
	})
	if err != nil {
		return nil, err
	}
	st.fuseGroups = len(fused.Groups)

	if sequential {
		st.matchSeq = rec.timed("dumas.match.seq", parent, op, func() {
			_, err = dumas.MatchContext(ctx, left, right, dumas.Config{Parallelism: 1})
		})
		if err != nil {
			return nil, err
		}
		detectCfg.Parallelism = 1
		st.detectSeq = rec.timed("dupdetect.detect.seq", parent, op, func() {
			_, err = dupdetect.DetectContext(ctx, res.Merged, detectCfg)
		})
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// stageAcc accumulates replays and turns them into the per-layer
// values every fusion workload reports: medians of the timings, the
// (identical) counts of the last replay.
type stageAcc struct {
	opLat                                []float64 // the public entry point, ms
	parse, pipeline, match, detect, fuse []float64
	matchSeq, detectSeq                  []float64 // Parallelism = 1, when replayed
	last                                 *stages
}

func (a *stageAcc) add(opLat time.Duration, st *stages) {
	a.opLat = append(a.opLat, ms(opLat))
	a.parse = append(a.parse, float64(st.parse)/float64(time.Microsecond))
	a.pipeline = append(a.pipeline, ms(st.pipeline))
	a.match = append(a.match, ms(st.match))
	a.detect = append(a.detect, ms(st.detect))
	a.fuse = append(a.fuse, ms(st.fuse))
	if st.matchSeq > 0 {
		a.matchSeq = append(a.matchSeq, ms(st.matchSeq))
		a.detectSeq = append(a.detectSeq, ms(st.detectSeq))
	}
	a.last = st
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// values reports the layer metrics. plan.self_ms is the public entry
// point's time less the pipeline's: bind, cache bookkeeping and
// post-processing. core.self_ms is the pipeline's time less the three
// phases replayed on their own: rename, sourceID and outer union.
func (a *stageAcc) values(out map[string]float64) {
	if a.last == nil {
		return
	}
	pipeline, match, detect, fuse := median(a.pipeline), median(a.match), median(a.detect), median(a.fuse)
	out["sql.parse_us"] = median(a.parse)
	out["plan.self_ms"] = nonNegative(median(a.opLat) - pipeline)
	out["core.pipeline_ms"] = pipeline
	out["core.self_ms"] = nonNegative(pipeline - match - detect - fuse)
	out["core.merged_rows"] = float64(a.last.mergedRows)
	out["dumas.match_ms"] = match
	out["dumas.candidate_pairs"] = float64(a.last.matchStats.CandidatePairs)
	out["dumas.scored"] = float64(a.last.matchStats.Scored)
	out["dumas.scored_ratio"] = ratio(float64(a.last.matchStats.Scored), float64(a.last.matchStats.CandidatePairs))
	out["dumas.f1"] = a.last.matchF1
	out["dupdetect.detect_ms"] = detect
	ds := a.last.detectStats
	out["dupdetect.candidate_pairs"] = float64(ds.CandidatePairs)
	out["dupdetect.filtered_out"] = float64(ds.FilteredOut)
	out["dupdetect.compared"] = float64(ds.Compared)
	out["dupdetect.filter_ratio"] = ratio(float64(ds.FilteredOut), float64(ds.CandidatePairs))
	out["dupdetect.skipped_blocks"] = float64(ds.SkippedBlocks)
	out["dupdetect.f1"] = a.last.detectF1
	out["fusion.fuse_ms"] = fuse
	out["fusion.rows_in"] = float64(a.last.fuseRowsIn)
	out["fusion.groups"] = float64(a.last.fuseGroups)
	if len(a.matchSeq) > 0 {
		out["dumas.par_speedup"] = ratio(median(a.matchSeq), match)
		out["dupdetect.par_speedup"] = ratio(median(a.detectSeq), detect)
	}
}

func nonNegative(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// sink keeps the kernels' results alive.
var sink float64

// stringKernels times the two string measures duplicate detection
// spends its comparisons in, over a seeded sample of cell pairs of
// the merged relation: the explanation of dupdetect.detect_ms one
// level down.
func stringKernels(seed int64, merged *relation.Relation, out map[string]float64) {
	const pairs = 10000
	rng := rand.New(rand.NewSource(seed))
	col, ok := merged.Schema().Lookup("Name")
	if !ok || merged.Len() < 2 {
		return
	}
	corpus := strsim.NewCorpus()
	texts := make([]string, merged.Len())
	for i := range texts {
		texts[i] = merged.Row(i)[col].Text()
		corpus.AddText(texts[i])
	}
	as, bs := make([]string, pairs), make([]string, pairs)
	for i := range as {
		as[i], bs[i] = texts[rng.Intn(len(texts))], texts[rng.Intn(len(texts))]
	}
	t := time.Now()
	for i := range as {
		sink += strsim.LevenshteinSim(as[i], bs[i])
	}
	out["strsim.edit_ns"] = float64(time.Since(t)) / pairs
	t = time.Now()
	for i := range as {
		sink += corpus.TFIDF(as[i], bs[i])
	}
	out["strsim.cosine_ns"] = float64(time.Since(t)) / pairs
}

// dispatchCost times parshard's hand-off alone: no-op items through
// as many workers as the match and detect phases use by default. Set
// beside the two par_speedup values it says how much of a missing
// speed-up is the pool's own cost.
func dispatchCost(out map[string]float64) {
	const items = 1 << 20
	gen := func(yield func(int) bool) {
		for i := 0; i < items; i++ {
			if !yield(i) {
				return
			}
		}
	}
	t := time.Now()
	total := parshard.Run(parshard.Workers(0), 0, gen,
		func() func(int, *int) { return func(_ int, acc *int) { *acc++ } },
		func(into *int, chunk int) { *into += chunk })
	if total == items {
		out["parshard.dispatch_ns_per_item"] = float64(time.Since(t)) / items
	}
}
