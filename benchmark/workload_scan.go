package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hummer"
	"hummer/internal/datagen"
	"hummer/internal/engine"
	"hummer/internal/metadata"
	"hummer/internal/plan"
	"hummer/internal/relation"
	"hummer/internal/sql"
	"hummer/internal/value"
)

const (
	// scanRows is the size of the dirty table (E15's size): each of
	// 20 000 entities observed twice.
	scanRows = 40000
	// joinRows is the size of each join input.
	joinRows = 20000
)

const (
	scanSQL = "SELECT * FROM big"
	joinSQL = "SELECT i, j, v FROM jl JOIN jr ON k = k2 WHERE v >= 250 ORDER BY i"
)

// scanJoin is the plain relational path: no matching, no detection,
// no fusion. One client rotates three statements; the artifact cache
// is purged before each, so the join subtree is never served from the
// cross-statement tier.
type scanJoin struct {
	seed        int64
	db          *hummer.DB
	big, jl, jr *relation.Relation
	want        [3]uint64
	turn        int
}

var scanKinds = [3]string{"stream", "materialized", "join"}

func setupScanJoin(seed int64) (instance, error) {
	w := &scanJoin{seed: seed, db: hummer.New()}
	ents := datagen.Persons.Generate(seed, scanRows/2)
	w.big = datagen.DirtyTable(datagen.Persons, ents, 2, datagen.SourceSpec{
		Alias: "big", TypoRate: 0.1, NullRate: 0.05, Seed: seed + 15,
	}).Rel

	// Left keys repeat and miss; right keys are unique: the join emits
	// one row per left row whose key exists on the right.
	rng := rand.New(rand.NewSource(seed + 17))
	lb := relation.NewBuilder("jl", "k", "i", "v")
	for i := 0; i < joinRows; i++ {
		lb.Add(value.NewInt(int64(rng.Intn(joinRows*5/4))), value.NewInt(int64(i)), value.NewInt(int64(rng.Intn(1000))))
	}
	w.jl = lb.Build()
	rb := relation.NewBuilder("jr", "k2", "j")
	for _, k := range rng.Perm(joinRows) {
		rb.Add(value.NewInt(int64(k)), value.NewInt(int64(k)*7))
	}
	w.jr = rb.Build()

	if err := w.register(w.db); err != nil {
		return nil, err
	}
	for i := range w.want {
		s := w.issue(i, nil, 0)
		if s.Failed {
			return nil, fmt.Errorf("first %s operation failed", scanKinds[i])
		}
		w.want[i] = s.sum
	}
	return w, nil
}

func (w *scanJoin) close() {}

func (w *scanJoin) fingerprint() string {
	return fingerprintOf(scanSQL+"|"+scanSQL+"|"+joinSQL, w.big, w.jl, w.jr)
}

func (w *scanJoin) register(db *hummer.DB) error {
	for _, rel := range []*relation.Relation{w.big, w.jl, w.jr} {
		if err := db.RegisterTable(rel.Name(), rel); err != nil {
			return err
		}
	}
	return nil
}

func (w *scanJoin) check(c *checker) {
	checkStatement(c, "scan_join_stream scan", scanSQL, w.register)
	checkStatement(c, "scan_join_stream join", joinSQL, w.register)
}

// scanSample is an opSample plus the result checksum.
type scanSample struct {
	opSample
	sum uint64
}

// issue runs statement i of the rotation through the public entry
// point: 0 drains the table through the streaming cursor, 1
// materializes it, 2 is the join.
func (w *scanJoin) issue(i int, rec *recorder, op int) scanSample {
	w.db.PurgeCache()
	s := scanSample{opSample: opSample{Kind: scanKinds[i], TTFR: -1}}
	id := rec.start("op", 0, op)
	t := time.Now()
	if i == 0 {
		rows, err := w.db.QueryRows(context.Background(), scanSQL)
		if err != nil {
			s.Failed = true
			rec.end(id)
			return s
		}
		for rows.Next() {
			if s.Rows == 0 {
				s.TTFR = time.Since(t)
			}
			s.Rows++
			s.sum = foldRow(s.sum, rows.Row())
		}
		s.Failed = rows.Err() != nil
		rows.Close()
		s.Lat = time.Since(t)
	} else {
		stmt := scanSQL
		if i == 2 {
			stmt = joinSQL
		}
		res, err := w.db.Query(stmt)
		s.Lat = time.Since(t)
		if err != nil {
			s.Failed = true
		} else {
			s.Rows = res.Rel.Len()
			s.sum = quickSum(res.Rel)
		}
	}
	rec.end(id)
	if w.want[i] != 0 && s.sum != w.want[i] {
		s.Failed = true
	}
	return s
}

func (w *scanJoin) measure(d time.Duration) *measurement {
	m := closedLoop(d, func(out *[]opSample) int {
		s := w.issue(w.turn%3, nil, 0)
		w.turn++
		*out = append(*out, s.opSample)
		return 1
	})
	// rows_per_s here is rows drained per second of streamed drain.
	for _, o := range m.Ops {
		if o.Kind == "stream" && !o.Failed {
			m.Rows += o.Rows
			m.RowsTime += o.Lat
		}
	}
	return m
}

func (w *scanJoin) trace(rec *recorder, scale float64) (map[string]float64, int) {
	out := map[string]float64{}
	ctx := context.Background()
	n := scaled(450, scale)

	var untraced, traced time.Duration
	for i := 0; i < n; i++ {
		untraced += w.issue(i%3, nil, 0).Lat
	}
	c0 := w.db.Stats().Cache
	stall0, rows0 := plan.StreamStallSnapshot(), plan.StreamProducedRows()
	var ttfr []float64
	failed := 0
	for i := 0; i < n; i++ {
		s := w.issue(i%3, rec, i+1)
		traced += s.Lat
		if s.Failed {
			failed++
		}
		if s.TTFR >= 0 {
			ttfr = append(ttfr, micros(s.TTFR))
		}
	}
	stall1, rows1 := plan.StreamStallSnapshot(), plan.StreamProducedRows()
	cacheDelta(c0, w.db.Stats().Cache, out)
	out["trace.overhead_ratio"] = ratio(float64(traced), float64(untraced))
	out["plan.stream_ttfr_us"] = median(ttfr)
	out["plan.stream_rows"] = float64(rows1 - rows0)
	out["plan.stream_stall_p95_us"] = histP95Micros(stall0.Bounds, stall0.Buckets, stall1.Buckets)

	// The engine's operators called directly on the same relations.
	var parse, scan, join, joinSeq, filterSort, register []float64
	joinOut := 0
	reps := scaled(60, scale)
	for i := 0; i < reps; i++ {
		op := n + i + 1
		id := rec.start("replay", 0, op)
		var stmt *sql.Stmt
		parse = append(parse, micros(rec.timed("sql.parse", id, op, func() { stmt, _ = sql.Parse(joinSQL) })))
		if stmt == nil {
			rec.end(id)
			continue
		}
		scan = append(scan, rec.timed("engine.scan", id, op, func() {
			_, _ = engine.MaterializeContext(ctx, "scan", engine.NewScan(w.big))
		}).Seconds())

		runJoin := func(name string, workers int) (time.Duration, *relation.Relation) {
			var rel *relation.Relation
			d := rec.timed(name, id, op, func() {
				j, err := engine.NewHashJoin(engine.NewScan(w.jl), engine.NewScan(w.jr), "k", "k2")
				if err != nil {
					return
				}
				j.SetParallelism(workers)
				rel, _ = engine.MaterializeContext(ctx, "join", j)
			})
			return d, rel
		}
		d, joined := runJoin("engine.join", 0)
		if joined == nil {
			rec.end(id)
			continue
		}
		join = append(join, ms(d))
		joinOut = joined.Len()
		d, _ = runJoin("engine.join.seq", 1)
		joinSeq = append(joinSeq, ms(d))

		filterSort = append(filterSort, ms(rec.timed("engine.filter_sort", id, op, func() {
			_, _ = engine.MaterializeContext(ctx, "sorted", engine.NewSort(
				engine.NewFilter(engine.NewScan(joined), stmt.Where),
				[]engine.SortKey{{Col: "i"}}))
		})))

		register = append(register, ms(rec.timed("metadata.register", id, op, func() {
			repo := metadata.NewRepository()
			if repo.RegisterRelation("big", w.big) == nil {
				_, _ = repo.Get("big")
			}
		})))
		rec.end(id)
	}
	out["sql.parse_us"] = median(parse)
	out["engine.scan_rows_per_s"] = ratio(float64(w.big.Len()), median(scan))
	out["engine.join_ms"] = median(join)
	out["engine.join_rows_out"] = float64(joinOut)
	out["engine.join_par_speedup"] = ratio(median(joinSeq), median(join))
	out["engine.filter_sort_ms"] = median(filterSort)
	out["metadata.register_ms"] = median(register)
	return out, failed
}
