package main

import (
	"fmt"
	"math/rand"
	"time"

	"hummer"
	"hummer/internal/metadata"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/value"
)

const (
	// replaceEntities sizes both pairs of replace_refuse; a re-fuse
	// over 300 entities per source is a few tens of milliseconds.
	replaceEntities = 300
	// replaceEditShare is the share of r2's rows each cycle rewrites.
	replaceEditShare = 0.02
	// replaceWarmReads follow every re-fuse, alternating the replaced
	// pair and the bystander pair.
	replaceWarmReads = 8
	// A write is about a microsecond and a warm read about five: one
	// call, timed alone right after a 28 ms re-fuse has emptied the
	// processor's caches, measures the memory system's mood more than
	// the program. So every write is issued writeBurst times over (the
	// same relation, each call a real replace that bumps the
	// generation) and every warm read readBurst times over, and a
	// sample is the burst's time divided by its length.
	writeBurst = 8
	readBurst  = 16
	// editedAgeBase keeps the rewritten ages above every generated
	// one, so RESOLVE(Age, max) must surface them: a stale answer
	// cannot look right.
	editedAgeBase = 1000
)

// replaceRefuse puts writes beside reads: each cycle replaces r2 with
// an edited copy (new fingerprint, new generation), re-fuses (r1, r2)
// and then reads both the replaced pair and an untouched bystander
// pair (b1, b2) from the cache.
type replaceRefuse struct {
	seed         int64
	db           *hummer.DB
	r, b         pair
	stmtR, stmtB string
	wantB        uint64
	cycle        int
	lastR        uint64
}

func setupReplaceRefuse(seed int64) (instance, error) {
	w := &replaceRefuse{
		seed:  seed,
		db:    hummer.New(),
		r:     personPair(seed, replaceEntities, "r1", "r2", nil),
		b:     personPair(seed+100, replaceEntities, "b1", "b2", nil),
		stmtR: fuseSQL("r1", "r2"),
		stmtB: fuseSQL("b1", "b2"),
	}
	for _, p := range []pair{w.r, w.b} {
		if err := registerPair(w.db, p); err != nil {
			return nil, err
		}
	}
	res, err := w.db.Query(w.stmtB)
	if err != nil {
		return nil, err
	}
	w.wantB = quickSum(res.Rel)
	if res, err = w.db.Query(w.stmtR); err != nil {
		return nil, err
	}
	w.lastR = quickSum(res.Rel)
	return w, nil
}

func (w *replaceRefuse) close() {}

func (w *replaceRefuse) fingerprint() string {
	return fingerprintOf(w.stmtR+"|"+w.stmtB, w.r.left.Rel, w.r.right.Rel, w.b.left.Rel, w.b.right.Rel, w.edited(1))
}

// edited returns r2 with a seeded replaceEditShare of its rows given
// an age that names the cycle. Every cycle's relation is new content:
// no earlier cycle's cached artifacts can answer for it.
func (w *replaceRefuse) edited(cycle int) *relation.Relation {
	base := w.r.right.Rel
	out := base.Clone()
	col, _ := base.Schema().Lookup(personRenames["Age"])
	rng := rand.New(rand.NewSource(w.seed + int64(cycle)*7919))
	for i := 0; i < int(float64(base.Len())*replaceEditShare); i++ {
		row := out.Row(rng.Intn(out.Len()))
		row[col] = value.NewInt(int64(editedAgeBase + cycle))
	}
	return out
}

// hasAge reports whether the fused result carries the cycle's marker
// age anywhere: the cheap in-loop test that the answer is not stale.
func hasAge(rel *hummer.Relation, age int64) bool {
	col, ok := rel.Schema().Lookup("Age")
	if !ok {
		return false
	}
	for _, row := range rel.Rows() {
		if v := row[col]; v.Kind() == value.KindInt && v.Int() == age {
			return true
		}
	}
	return false
}

// runCycle is one write, one read after it and the warm reads. fn is
// called burst times and timed as one; the sample is the time per
// call, and valid judges the last call's answer.
func (w *replaceRefuse) runCycle(out *[]opSample, rec *recorder) int {
	w.cycle++
	next := w.edited(w.cycle)
	timedOp := func(kind string, burst int, fn func() (*hummer.Result, error), valid func(*hummer.Relation) bool) {
		id := rec.start("op."+kind, 0, w.cycle)
		var res *hummer.Result
		var err error
		t := time.Now()
		for i := 0; i < burst && err == nil; i++ {
			res, err = fn()
		}
		s := opSample{Kind: kind, Lat: time.Since(t) / time.Duration(burst), TTFR: -1}
		rec.end(id)
		if err != nil || (res != nil && !valid(res.Rel)) {
			s.Failed = true
		} else if res != nil {
			s.Rows = burst * res.Rel.Len()
		}
		*out = append(*out, s)
	}
	timedOp("write", writeBurst, func() (*hummer.Result, error) { return nil, w.db.ReplaceTable("r2", next) }, nil)
	timedOp("read_after_write", 1, func() (*hummer.Result, error) { return w.db.Query(w.stmtR) }, func(rel *hummer.Relation) bool {
		w.lastR = quickSum(rel)
		return hasAge(rel, int64(editedAgeBase+w.cycle))
	})
	for i := 0; i < replaceWarmReads; i++ {
		if i%2 == 0 {
			timedOp("warm_replaced", readBurst, func() (*hummer.Result, error) { return w.db.Query(w.stmtR) },
				func(rel *hummer.Relation) bool { return quickSum(rel) == w.lastR })
		} else {
			timedOp("bystander", readBurst, func() (*hummer.Result, error) { return w.db.Query(w.stmtB) },
				func(rel *hummer.Relation) bool { return quickSum(rel) == w.wantB })
		}
	}
	return 1
}

func (w *replaceRefuse) measure(d time.Duration) *measurement {
	m := closedLoop(d, func(out *[]opSample) int { return w.runCycle(out, nil) })
	// rows_per_s here is result rows returned per second.
	for _, o := range m.Ops {
		m.Rows += o.Rows
	}
	m.RowsTime = m.Wall
	return m
}

func (w *replaceRefuse) check(c *checker) {
	checkStatement(c, "replace_refuse bystander", w.stmtB, func(db *hummer.DB) error { return registerPair(db, w.b) })
	// After a replace the cached DB must answer exactly as a fresh,
	// uncached DB over the new data does, and the bystander must not
	// have moved.
	for i := 0; i < 3; i++ {
		w.cycle++
		next := w.edited(w.cycle)
		if c.err("replace_refuse ReplaceTable", w.db.ReplaceTable("r2", next)) {
			return
		}
		got, err := w.db.Query(w.stmtR)
		if c.err("replace_refuse read after write", err) {
			return
		}
		fresh := hummer.New(hummer.WithoutCache())
		if c.err("replace_refuse fresh", fresh.RegisterTable("r1", w.r.left.Rel)) || c.err("replace_refuse fresh", fresh.RegisterTable("r2", next)) {
			return
		}
		want, err := fresh.Query(w.stmtR)
		if c.err("replace_refuse fresh query", err) {
			return
		}
		c.same(fmt.Sprintf("replace_refuse cycle %d: cached answer after replace vs fresh uncached DB", w.cycle), digest(want.Rel), digest(got.Rel))
		c.ok("replace_refuse marker age present", hasAge(got.Rel, int64(editedAgeBase+w.cycle)), "the rewritten age is missing from the answer")
		warm, err := w.db.Query(w.stmtR)
		if c.err("replace_refuse warm read", err) {
			return
		}
		c.same("replace_refuse warm read after replace", digest(want.Rel), digest(warm.Rel))
		by, err := w.db.Query(w.stmtB)
		if c.err("replace_refuse bystander read", err) {
			return
		}
		c.ok("replace_refuse bystander unchanged", quickSum(by.Rel) == w.wantB, "bystander answer changed after an unrelated replace")
		w.lastR = quickSum(got.Rel)
	}
}

func (w *replaceRefuse) trace(rec *recorder, scale float64) (map[string]float64, int) {
	out := map[string]float64{}
	n := scaled(150, scale)
	var plain, spanned []opSample
	for i := 0; i < n; i++ {
		w.runCycle(&plain, nil)
	}
	c0 := w.db.Stats().Cache
	for i := 0; i < n; i++ {
		w.runCycle(&spanned, rec)
	}
	cacheDelta(c0, w.db.Stats().Cache, out)
	sum := func(ops []opSample) (total time.Duration, failed int) {
		for _, o := range ops {
			total += o.Lat
			if o.Failed {
				failed++
			}
		}
		return
	}
	tPlain, _ := sum(plain)
	tSpanned, failed := sum(spanned)
	out["trace.overhead_ratio"] = ratio(float64(tSpanned), float64(tPlain))
	out["plan.fused_hit_us"] = median(latencies(spanned, func(o opSample) bool { return o.Kind == "bystander" })) * 1000

	// The stages of a read after a write, replayed on post-replace
	// inputs: the new relation is fingerprinted, matched against r1,
	// merged, detected and fused.
	acc := &stageAcc{}
	var fp, replace, register []float64
	reads := latencies(spanned, func(o opSample) bool { return o.Kind == "read_after_write" })
	reps := scaled(30, scale)
	for i := 0; i < reps; i++ {
		op := 2*n + i + 1
		next := w.edited(w.cycle + i + 1)
		id := rec.start("replay", 0, op)
		repo := metadata.NewRepository()
		register = append(register, ms(rec.timed("metadata.register", id, op, func() {
			_ = repo.RegisterRelation("r2", w.r.right.Rel)
		})))
		replace = append(replace, ms(rec.timed("metadata.replace", id, op, func() {
			_ = repo.Replace(metadata.NewRelationSource("r2", next))
		})))
		fp = append(fp, ms(rec.timed("qcache.fingerprint", id, op, func() { qcache.FingerprintRelation(next) })))
		st, err := replayFusion(rec, id, op, w.stmtR, w.r.left.Rel, next, w.r.truth(), true)
		rec.end(id)
		if err != nil {
			continue
		}
		acc.add(0, st)
	}
	acc.values(out)
	// plan.self_ms of a cached DB's miss includes the fingerprinting
	// and the cache bookkeeping of four tiers.
	out["plan.self_ms"] = nonNegative(median(reads) - out["core.pipeline_ms"])
	out["qcache.fingerprint_ms"] = median(fp)
	out["metadata.register_ms"] = median(register)
	out["metadata.replace_ms"] = median(replace)
	if acc.last != nil {
		stringKernels(w.seed, acc.last.merged, out)
	}
	dispatchCost(out)
	return out, failed
}
