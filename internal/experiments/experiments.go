// Package experiments reproduces the paper's quality results as
// deterministic tables: DUMAS schema matching (E3, E4, E10),
// duplicate detection and its filter and candidate strategies (E5,
// E6, E11), the conflict-resolution semantics of Fuse By (E7) and the
// demo scenarios end to end (E9). Each experiment generates its
// workload from a seed, runs the component under test, and returns a
// report table; cmd/hummer-bench prints them. Timing lives in the
// benchmark (BENCHMARK.json + benchmark/), not here.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"hummer/internal/core"
	"hummer/internal/datagen"
	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/eval"
	"hummer/internal/fusion"
	"hummer/internal/metadata"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/thalia"
	"hummer/internal/value"
)

// Report is one experiment's output table.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// personRenames is the schematic heterogeneity used by the matching
// experiments: the second source labels every attribute differently.
var personRenames = map[string]string{
	"Name": "FullName", "Age": "Years", "City": "Town",
	"Email": "Mail", "Phone": "Telephone",
}

// matchingTruth converts canonical→variant renames into the
// left→right truth map for eval.Matching (left = preferred source,
// which keeps canonical names).
func matchingTruth(renames map[string]string, attrs []string) map[string]string {
	truth := map[string]string{}
	for _, a := range attrs {
		if r, ok := renames[a]; ok {
			truth[a] = r
		} else {
			truth[a] = a
		}
	}
	return truth
}

// E3 measures DUMAS matching quality against the number of duplicates
// used (k) at three dirtiness levels, reproducing the central claim of
// the DUMAS paper: a handful of duplicates suffices for reliable
// matching, and more duplicates stabilize matching on dirty data.
func E3(ctx context.Context, seed int64, entities int) *Report {
	ents := datagen.Persons.Generate(seed, entities)
	truth := matchingTruth(personRenames, datagen.Persons.Attributes)
	dirtLevels := []struct {
		label string
		typo  float64
		null  float64
	}{
		{"clean", 0.05, 0.05},
		{"dirty", 0.3, 0.2},
		{"very dirty", 0.5, 0.35},
	}
	rep := &Report{
		ID:     "E3",
		Title:  "DUMAS matching F1 vs. number of duplicates used (persons, 2 sources)",
		Header: []string{"k duplicates", "F1 clean", "F1 dirty", "F1 very dirty"},
		Notes:  "the DUMAS claim: a handful of duplicates suffices; averaging over more duplicates stabilizes dirty data; 'naive' is the duplicate-free column matcher (ablation D1)",
	}
	type pair struct{ left, right *datagen.Observation }
	pairs := make([]pair, len(dirtLevels))
	for d, lvl := range dirtLevels {
		pairs[d] = pair{
			left: datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
				Alias: "s1", Coverage: 0.7, TypoRate: lvl.typo, NullRate: lvl.null,
				Seed: seed + int64(d)*100 + 1,
			}),
			right: datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
				Alias: "s2", Renames: personRenames,
				Coverage: 0.7, TypoRate: lvl.typo, NullRate: lvl.null,
				Seed: seed + int64(d)*100 + 2,
			}),
		}
	}
	for _, k := range []int{1, 2, 3, 5, 10, 20} {
		row := []string{fmt.Sprint(k)}
		for d := range dirtLevels {
			res, err := dumas.MatchContext(ctx, pairs[d].left.Rel, pairs[d].right.Rel,
				dumas.Config{MaxDuplicates: k})
			if err != nil {
				row = append(row, "err")
				continue
			}
			m := eval.Matching(res.Correspondences, truth)
			row = append(row, f2(m.F1))
		}
		rep.Rows = append(rep.Rows, row)
	}
	naiveRow := []string{"naive (D1)"}
	for d := range dirtLevels {
		naive := dumas.NaiveMatch(pairs[d].left.Rel, pairs[d].right.Rel, 0.35)
		m := eval.Matching(naive.Correspondences, truth)
		naiveRow = append(naiveRow, f2(m.F1))
	}
	rep.Rows = append(rep.Rows, naiveRow)
	return rep
}

// E4 measures matching quality against the duplicate-overlap rate
// between the two sources: with fewer shared entities, duplicate
// discovery has less to work with.
func E4(ctx context.Context, seed int64, entities int) *Report {
	rep := &Report{
		ID:     "E4",
		Title:  "DUMAS matching quality vs. source overlap (persons, k=10)",
		Header: []string{"overlap", "shared rows", "precision", "recall", "F1"},
	}
	ents := datagen.Persons.Generate(seed, entities)
	truth := matchingTruth(personRenames, datagen.Persons.Attributes)
	for _, overlap := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		// Left sees the first (overlap+0.1) fraction, right sees the
		// last, so that roughly `overlap` of entities are shared.
		split := int(float64(entities) * (1 - overlap))
		leftEnts := ents[:minInt(entities, split+int(float64(entities)*overlap))]
		rightEnts := ents[split:]
		left := datagen.ObserveShuffled(datagen.Persons, leftEnts, datagen.SourceSpec{
			Alias: "s1", TypoRate: 0.1, Seed: seed + 1,
		})
		right := datagen.ObserveShuffled(datagen.Persons, rightEnts, datagen.SourceSpec{
			Alias: "s2", Renames: personRenames, TypoRate: 0.1, Seed: seed + 2,
		})
		shared := len(leftEnts) + len(rightEnts) - entities
		res, err := dumas.MatchContext(ctx, left.Rel, right.Rel, dumas.Config{MaxDuplicates: 10})
		if err != nil {
			rep.Rows = append(rep.Rows, []string{f2(overlap), fmt.Sprint(shared), "err", "", ""})
			continue
		}
		m := eval.Matching(res.Correspondences, truth)
		rep.Rows = append(rep.Rows, []string{
			f2(overlap), fmt.Sprint(shared), f2(m.Precision), f2(m.Recall), f2(m.F1),
		})
	}
	return rep
}

// E5 sweeps the duplicate-detection threshold, reporting pairwise
// precision / recall / F1 — the DogmatiX-style evaluation.
func E5(ctx context.Context, seed int64, entities, dupesPer int) *Report {
	ents := datagen.Persons.Generate(seed, entities)
	obs := datagen.DirtyTable(datagen.Persons, ents, dupesPer, datagen.SourceSpec{
		Alias: "dirty", TypoRate: 0.15, NullRate: 0.1, NumericNoise: 0.1, Seed: seed + 3,
	})
	rep := &Report{
		ID: "E5",
		Title: fmt.Sprintf("duplicate detection quality vs. threshold (%d entities × %d representations)",
			entities, dupesPer),
		Header: []string{"threshold", "precision", "recall", "F1", "clusters"},
		Notes:  "ground truth: each entity appears exactly " + fmt.Sprint(dupesPer) + " times",
	}
	for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		res, err := dupdetect.DetectContext(ctx, obs.Rel, dupdetect.Config{Threshold: th})
		if err != nil {
			rep.Rows = append(rep.Rows, []string{f2(th), "err", err.Error(), "", ""})
			continue
		}
		m := eval.DuplicatePairs(res.ObjectIDs, obs.EntityIDs)
		rep.Rows = append(rep.Rows, []string{
			f2(th), f3(m.Precision), f3(m.Recall), f3(m.F1),
			fmt.Sprint(eval.ClusterCount(res.ObjectIDs)),
		})
	}
	return rep
}

// E6 measures the filter's effect (ablation D4): comparisons saved by
// the upper bound versus any recall lost (none, since the bound is
// sound).
func E6(ctx context.Context, seed int64, sizes []int) *Report {
	rep := &Report{
		ID:     "E6",
		Title:  "effect of the upper-bound filter on comparisons (threshold 0.8)",
		Header: []string{"rows", "candidate pairs", "compared (filter on)", "saved", "F1 on", "F1 off"},
		Notes:  "the filter is a sound upper bound: F1 must be identical with and without",
	}
	for _, n := range sizes {
		ents := datagen.Persons.Generate(seed, n/2)
		obs := datagen.DirtyTable(datagen.Persons, ents, 2, datagen.SourceSpec{
			Alias: "dirty", TypoRate: 0.15, NullRate: 0.1, Seed: seed + 4,
		})
		on, err := dupdetect.DetectContext(ctx, obs.Rel, dupdetect.Config{Threshold: 0.8})
		if err != nil {
			continue
		}
		off, err := dupdetect.DetectContext(ctx, obs.Rel, dupdetect.Config{Threshold: 0.8, DisableFilter: true})
		if err != nil {
			continue
		}
		mOn := eval.DuplicatePairs(on.ObjectIDs, obs.EntityIDs)
		mOff := eval.DuplicatePairs(off.ObjectIDs, obs.EntityIDs)
		saved := 1 - float64(on.Stats.Compared)/float64(on.Stats.CandidatePairs)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(obs.Rel.Len()),
			fmt.Sprint(on.Stats.CandidatePairs),
			fmt.Sprint(on.Stats.Compared),
			fmt.Sprintf("%.0f%%", saved*100),
			f3(mOn.F1), f3(mOff.F1),
		})
	}
	return rep
}

// E7 builds the resolution-semantics matrix: every built-in resolution
// function applied to the four canonical conflict patterns of the Fuse
// By paper — agreeing values, conflicting values, value-vs-null
// (subsumption), and all-null.
func E7() *Report {
	reg := fusion.NewRegistry()
	patterns := []struct {
		name    string
		values  []value.Value
		sources []string
	}{
		{"agree", []value.Value{value.NewString("x"), value.NewString("x")}, []string{"s1", "s2"}},
		{"conflict", []value.Value{value.NewString("x"), value.NewString("y")}, []string{"s1", "s2"}},
		{"null-pad", []value.Value{value.Null, value.NewString("x")}, []string{"s1", "s2"}},
		{"all-null", []value.Value{value.Null, value.Null}, []string{"s1", "s2"}},
	}
	funcs := []string{
		"coalesce", "first", "last", "vote", "group", "concat",
		"annconcat", "shortest", "longest", "min", "max", "count",
	}
	rep := &Report{
		ID:     "E7",
		Title:  "conflict-resolution semantics matrix (value patterns × functions)",
		Header: append([]string{"function"}, patternNames(patterns)...),
	}
	s := schema.FromNames("c")
	for _, fn := range funcs {
		f, ok := reg.Lookup(fn)
		if !ok {
			continue
		}
		row := []string{fn}
		for _, pat := range patterns {
			rows := make([]relation.Row, len(pat.values))
			for i, v := range pat.values {
				rows[i] = relation.Row{v}
			}
			ctx := &fusion.Context{
				Column: "c", Relation: "t", Schema: s,
				Rows: rows, Values: pat.values, Sources: pat.sources,
			}
			v, err := f(ctx, "")
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, v.String())
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

func patternNames(patterns []struct {
	name    string
	values  []value.Value
	sources []string
}) []string {
	out := make([]string, len(patterns))
	for i, p := range patterns {
		out[i] = p.name
	}
	return out
}

// E9 runs the three demo scenarios of §1 end-to-end and summarizes
// each phase's output.
func E9(ctx context.Context, seed int64) *Report {
	rep := &Report{
		ID:     "E9",
		Title:  "demo scenarios end-to-end (paper §1)",
		Header: []string{"scenario", "sources", "input rows", "clusters", "fused rows", "mixed-lineage cells"},
	}
	type scenario struct {
		name    string
		domain  *datagen.Domain
		renames []map[string]string
	}
	scenarios := []scenario{
		{"CD catalogs", datagen.CDs, []map[string]string{
			nil,
			{"Artist": "Performer", "Title": "Album", "Price": "Cost"},
			{"Title": "Name", "Year": "Released", "Label": "Publisher"},
		}},
		{"cleansing", datagen.Persons, []map[string]string{nil}},
		{"crisis data", datagen.Crisis, []map[string]string{
			nil,
			{"Name": "Person", "Location": "Area", "Reported": "Date"},
		}},
	}
	for si, sc := range scenarios {
		repo := metadata.NewRepository()
		ents := sc.domain.Generate(seed+int64(si), 60)
		var aliases []string
		inputRows := 0
		for i, ren := range sc.renames {
			alias := fmt.Sprintf("%s_src%d", sc.domain.Name, i+1)
			spec := datagen.SourceSpec{
				Alias: alias, Renames: ren, Coverage: 0.8,
				TypoRate: 0.1, NullRate: 0.05, NumericNoise: 0.1,
				Seed: seed + int64(si*10+i),
			}
			var obs *datagen.Observation
			if len(sc.renames) == 1 {
				// Single-source cleansing: duplicates inside one table.
				obs = datagen.DirtyTable(sc.domain, ents, 2, spec)
			} else {
				obs = datagen.ObserveShuffled(sc.domain, ents, spec)
			}
			if err := repo.RegisterRelation(alias, obs.Rel); err != nil {
				continue
			}
			aliases = append(aliases, alias)
			inputRows += obs.Rel.Len()
		}
		p := &core.Pipeline{Repo: repo}
		res, err := p.RunContext(ctx, aliases, core.Options{})
		if err != nil {
			rep.Rows = append(rep.Rows, []string{sc.name, fmt.Sprint(len(aliases)), "err: " + err.Error(), "", "", ""})
			continue
		}
		mixed := 0
		for i := range res.Fused.Lineage {
			for _, l := range res.Fused.Lineage[i] {
				if l.IsMixed() {
					mixed++
				}
			}
		}
		clusters := 0
		if res.Detection != nil {
			clusters = len(res.Detection.Clusters)
		}
		rep.Rows = append(rep.Rows, []string{
			sc.name, fmt.Sprint(len(aliases)), fmt.Sprint(inputRows),
			fmt.Sprint(clusters), fmt.Sprint(res.Fused.Rel.Len()), fmt.Sprint(mixed),
		})
	}
	return rep
}

// E10 runs DUMAS over every THALIA heterogeneity class and reports
// which classes instance-based matching bridges automatically.
func E10(ctx context.Context, seed int64, courses int) *Report {
	rep := &Report{
		ID:     "E10",
		Title:  fmt.Sprintf("THALIA heterogeneity classes bridged by DUMAS (%d courses)", courses),
		Header: []string{"class", "name", "precision", "recall", "F1", "bridged"},
		Notes:  "bridged = recall ≥ 0.8 of the representable correspondences",
	}
	canon := thalia.Canonical(seed, courses)
	for _, c := range thalia.Classes() {
		v, err := thalia.Generate(c.ID, seed, courses)
		if err != nil {
			continue
		}
		res, err := dumas.MatchContext(ctx, canon, v.Rel, dumas.Config{})
		if err != nil {
			rep.Rows = append(rep.Rows, []string{fmt.Sprint(c.ID), c.Name, "err", "", "", ""})
			continue
		}
		m := eval.Matching(res.Correspondences, v.Truth)
		bridged := "no"
		if m.Recall >= 0.8 {
			bridged = "yes"
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(c.ID), c.Name, f2(m.Precision), f2(m.Recall), f2(m.F1), bridged,
		})
	}
	return rep
}

// E11 compares sorted-neighborhood candidate generation (the
// scalability extension) against the exhaustive pairing: comparisons
// performed and pairwise F1, per window size.
func E11(ctx context.Context, seed int64, entities, dupesPer int) *Report {
	ents := datagen.Persons.Generate(seed, entities)
	obs := datagen.DirtyTable(datagen.Persons, ents, dupesPer, datagen.SourceSpec{
		Alias: "dirty", TypoRate: 0.15, NullRate: 0.1, Seed: seed + 5,
	})
	rep := &Report{
		ID:     "E11",
		Title:  fmt.Sprintf("sorted-neighborhood blocking vs. exhaustive pairing (%d rows)", obs.Rel.Len()),
		Header: []string{"method", "candidates", "compared", "precision", "recall", "F1"},
		Notes:  "SNM trades recall on far-sorting duplicates for near-linear cost",
	}
	runOne := func(label string, cfg dupdetect.Config) {
		res, err := dupdetect.DetectContext(ctx, obs.Rel, cfg)
		if err != nil {
			return
		}
		m := eval.DuplicatePairs(res.ObjectIDs, obs.EntityIDs)
		rep.Rows = append(rep.Rows, []string{
			label, fmt.Sprint(res.Stats.CandidatePairs), fmt.Sprint(res.Stats.Compared),
			f3(m.Precision), f3(m.Recall), f3(m.F1),
		})
	}
	runOne("exhaustive", dupdetect.Config{Threshold: 0.85})
	for _, w := range []int{2, 5, 10, 20} {
		runOne(fmt.Sprintf("SNM w=%d", w), dupdetect.Config{Threshold: 0.85, Window: w})
	}
	return rep
}

// ByID runs the named experiment (case-insensitive) under ctx, or
// returns nil for an unknown id.
func ByID(ctx context.Context, id string, seed int64) *Report {
	switch strings.ToLower(id) {
	case "e3":
		return E3(ctx, seed, 200)
	case "e4":
		return E4(ctx, seed, 200)
	case "e5":
		return E5(ctx, seed, 80, 3)
	case "e6":
		return E6(ctx, seed, []int{100, 200, 400})
	case "e7":
		return E7()
	case "e9":
		return E9(ctx, seed)
	case "e10":
		return E10(ctx, seed, 60)
	case "e11":
		return E11(ctx, seed, 80, 3)
	default:
		return nil
	}
}

// IDs lists the experiment ids ByID accepts, in canonical run order.
func IDs() []string {
	return []string{"e3", "e4", "e5", "e6", "e7", "e9", "e10", "e11"}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
