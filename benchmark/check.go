package main

import (
	"context"
	"fmt"
	"time"

	"hummer"
	"hummer/internal/relation"
)

// checker collects the outcome of the correctness gate. The gate runs
// before every timed window (and alone under -check): a benchmark
// that times wrong answers measures nothing.
type checker struct {
	passed   int
	failures []string
}

func (c *checker) ok(what string, cond bool, detail string) {
	if cond {
		c.passed++
		return
	}
	c.failures = append(c.failures, what+": "+detail)
}

func (c *checker) same(what, a, b string) {
	c.ok(what, a == b, fmt.Sprintf("digests differ: %.12s vs %.12s", a, b))
}

func (c *checker) err(what string, err error) bool {
	if err != nil {
		c.failures = append(c.failures, what+": "+err.Error())
		return true
	}
	return false
}

// drain reads a streaming cursor to the end and returns the rows as a
// relation, with the time from start to the first row.
func drain(rows *hummer.Rows, start time.Time) (*hummer.Relation, time.Duration, error) {
	defer rows.Close()
	s, err := rows.Schema()
	if err != nil {
		return nil, 0, err
	}
	rel := relation.New("stream", s)
	ttfr := time.Duration(-1)
	for rows.Next() {
		if ttfr < 0 {
			ttfr = time.Since(start)
		}
		if err := rel.Append(rows.Row()); err != nil {
			return nil, 0, err
		}
	}
	return rel, ttfr, rows.Err()
}

// checkStatement is the part of the gate every in-process workload
// shares: one statement over registered sources must give the same
// bytes on a second run, at Parallelism = 1, with the cache on and
// off, and streamed. register loads the workload's sources into a
// fresh DB.
func checkStatement(c *checker, name, stmt string, register func(*hummer.DB) error) string {
	run := func(label string, streamed bool, opts ...hummer.Option) string {
		db := hummer.New(opts...)
		if c.err(name+" "+label+" register", register(db)) {
			return ""
		}
		if streamed {
			rows, err := db.QueryRows(context.Background(), stmt)
			if c.err(name+" "+label, err) {
				return ""
			}
			rel, _, err := drain(rows, time.Now())
			if c.err(name+" "+label, err) {
				return ""
			}
			return digest(rel)
		}
		res, err := db.Query(stmt)
		if c.err(name+" "+label, err) {
			return ""
		}
		return digest(res.Rel)
	}
	base := run("uncached", false, hummer.WithoutCache())
	c.same(name+": second run", base, run("uncached again", false, hummer.WithoutCache()))
	c.same(name+": Parallelism=1 vs default", base, run("sequential", false, hummer.WithoutCache(), hummer.WithParallelism(1)))
	c.same(name+": cached vs WithoutCache", base, run("cached", false))
	c.same(name+": streamed vs materialized", base, run("streamed", true))
	return base
}
