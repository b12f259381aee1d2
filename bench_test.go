// Go benchmarks of the pipeline's stages, for profiling with
// `go test -bench`. They are tools, not evidence: performance claims
// come from the benchmark (BENCHMARK.json + benchmark/).
//
//	BenchmarkParseFuseBy        — Fuse By grammar (Fig. 1)
//	BenchmarkPipelineEndToEnd   — full pipeline (Fig. 2)
//	BenchmarkDUMASMatch         — schema matching
//	BenchmarkDetect             — parallel detection at worker counts 1, 2, 4
//	BenchmarkDupDetect          — duplicate detection
//	BenchmarkDupDetectNoFilter  — ablation D4 (filter off)
//	BenchmarkResolution*        — conflict-resolution functions
//	BenchmarkFuseByScaling      — fusion vs. plain outer union
//	BenchmarkQueryEndToEnd      — public API round trip, cold (cache
//	                              off) and warm (fused-tier hits)
//
// Run: go test -run '^$' -bench=. -benchmem
// Profile the cold FUSE BY path without a server: make profile-cold
package hummer

import (
	"fmt"
	"reflect"
	"testing"

	"hummer/internal/core"
	"hummer/internal/datagen"
	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/engine"
	"hummer/internal/fusion"
	"hummer/internal/metadata"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/sql"
	"hummer/internal/value"
)

const benchSeed = 2005

var benchRenames = map[string]string{
	"Name": "FullName", "Age": "Years", "City": "Town",
	"Email": "Mail", "Phone": "Telephone",
}

// benchSources builds two overlapping dirty person sources with n/2
// entities each.
func benchSources(n int) (*relation.Relation, *relation.Relation) {
	ents := datagen.Persons.Generate(benchSeed, n/2)
	left := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
		Alias: "s1", TypoRate: 0.1, NullRate: 0.05, Seed: benchSeed + 1,
	})
	right := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
		Alias: "s2", Renames: benchRenames, TypoRate: 0.1, NullRate: 0.05, Seed: benchSeed + 2,
	})
	return left.Rel, right.Rel
}

func benchRepo(b *testing.B, n int) *metadata.Repository {
	b.Helper()
	l, r := benchSources(n)
	repo := metadata.NewRepository()
	if err := repo.RegisterRelation("s1", l); err != nil {
		b.Fatal(err)
	}
	if err := repo.RegisterRelation("s2", r); err != nil {
		b.Fatal(err)
	}
	return repo
}

// BenchmarkParseFuseBy measures parsing of the paper's Fig. 1 example
// statement.
func BenchmarkParseFuseBy(b *testing.B) {
	q := `SELECT Name, RESOLVE(Age, max), RESOLVE(Price, choose('shopB')) AS p
	      FUSE FROM EE_Student, CS_Students
	      WHERE Age > 18 AND City LIKE 'Ber%'
	      FUSE BY (Name, City)
	      HAVING Age < 99 ORDER BY Name DESC LIMIT 10`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineEndToEnd measures the full Fig. 2 dataflow:
// matching, transformation, duplicate detection and fusion.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			repo := benchRepo(b, n)
			p := &core.Pipeline{Repo: repo}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunContext(b.Context(), []string{"s1", "s2"}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDUMASMatch measures duplicate-based schema matching
// (experiment E3).
func BenchmarkDUMASMatch(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			l, r := benchSources(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dumas.MatchContext(b.Context(), l, r, dumas.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDirty builds the duplicate-detection workload.
func benchDirty(n int) *relation.Relation {
	ents := datagen.Persons.Generate(benchSeed, n/3)
	obs := datagen.DirtyTable(datagen.Persons, ents, 3, datagen.SourceSpec{
		Alias: "dirty", TypoRate: 0.15, NullRate: 0.1, Seed: benchSeed + 3,
	})
	return obs.Rel
}

// BenchmarkDetect measures the sharded parallel detector at scale:
// exhaustive pairing over ≥5k rows (1.2k in -short mode), at worker
// counts 1, 2 and 4. Each run's Result must be byte-identical to the
// sequential one (asserted here; the dupdetect parallel determinism
// tests pin the same property in the regular suite).
func BenchmarkDetect(b *testing.B) {
	n := 5000
	if testing.Short() {
		n = 1200
	}
	rel := benchDirty(n)
	baseline, err := dupdetect.DetectContext(b.Context(), rel, dupdetect.Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("rows=%d/parallel=%d", n, p), func(b *testing.B) {
			// Identity is asserted once, outside the timed loop: the
			// reflection walk must not skew the measured speedup.
			res, err := dupdetect.DetectContext(b.Context(), rel, dupdetect.Config{Parallelism: p})
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, res) {
				b.Fatalf("parallel=%d produced a different Result than sequential", p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dupdetect.DetectContext(b.Context(), rel, dupdetect.Config{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDupDetect measures duplicate detection with the upper-bound
// filter on (experiment E5).
func BenchmarkDupDetect(b *testing.B) {
	for _, n := range []int{100, 300, 900} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rel := benchDirty(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dupdetect.DetectContext(b.Context(), rel, dupdetect.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDupDetectNoFilter is ablation D4: the same detection with
// the filter disabled (experiment E6 measures the gap).
func BenchmarkDupDetectNoFilter(b *testing.B) {
	for _, n := range []int{100, 300} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rel := benchDirty(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dupdetect.DetectContext(b.Context(), rel, dupdetect.Config{DisableFilter: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolutionFunctions measures the built-in conflict-
// resolution functions over a ten-way conflict (experiment E7).
func BenchmarkResolutionFunctions(b *testing.B) {
	reg := fusion.NewRegistry()
	s := schema.FromNames("c")
	vals := make([]value.Value, 10)
	rows := make([]relation.Row, 10)
	sources := make([]string, 10)
	for i := range vals {
		vals[i] = value.NewString(fmt.Sprintf("value-%d", i%4))
		rows[i] = relation.Row{vals[i]}
		sources[i] = fmt.Sprintf("s%d", i)
	}
	ctx := &fusion.Context{Column: "c", Relation: "t", Schema: s,
		Rows: rows, Values: vals, Sources: sources}
	for _, name := range []string{"coalesce", "vote", "concat", "longest", "min", "median"} {
		f, ok := reg.Lookup(name)
		if !ok {
			b.Fatalf("no function %q", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f(ctx, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFuseByScaling compares the full fusion pipeline against the
// outer-union-only baseline at growing input sizes.
func BenchmarkFuseByScaling(b *testing.B) {
	for _, n := range []int{200, 800} {
		repo := benchRepo(b, n)
		p := &core.Pipeline{Repo: repo}
		b.Run(fmt.Sprintf("pipeline/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunContext(b.Context(), []string{"s1", "s2"}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("outer-union-baseline/rows=%d", n), func(b *testing.B) {
			l, err := repo.Get("s1")
			if err != nil {
				b.Fatal(err)
			}
			r, err := repo.Get("s2")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, err := engine.NewOuterUnion(engine.NewScan(l), engine.NewScan(r))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.MaterializeContext(b.Context(), "u", u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryEndToEnd measures the public API round trip of a
// FUSE BY statement. cold runs with the cache off over 2 × 500 rows,
// so every iteration parses, plans, runs the whole pipeline and
// post-processes (`make profile-cold` profiles it); warm keeps the
// cache on, so every iteration after the first is a fused-tier hit.
func BenchmarkQueryEndToEnd(b *testing.B) {
	const q = `SELECT Name, RESOLVE(Age, max) FUSE FROM s1, s2 FUSE BY (Name) ORDER BY Name`
	for _, tc := range []struct {
		name string
		opts []Option
		rows int
	}{
		{"cold", []Option{WithoutCache()}, 1000},
		{"warm", nil, 200},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := New(tc.opts...)
			l, r := benchSources(tc.rows)
			if err := db.RegisterTable("s1", l); err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterTable("s2", r); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
