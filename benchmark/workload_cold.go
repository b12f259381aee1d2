package main

import (
	"fmt"
	"time"

	"hummer"
)

// coldFuseEntities sizes cold_fuse: 500 entities per source merge to
// about 1 000 rows and half a million detection candidates, well above
// the roughly 12 k candidates below which the parallel paths are
// suspected of costing more than they save.
const coldFuseEntities = 500

// coldFuse is the paper's ad-hoc path: one user, no cache, every
// query pays for matching, detection and fusion.
type coldFuse struct {
	seed int64
	p    pair
	db   *hummer.DB
	stmt string
	want uint64
}

func registerPair(db *hummer.DB, p pair) error {
	if err := db.RegisterTable(p.left.Rel.Name(), p.left.Rel); err != nil {
		return err
	}
	return db.RegisterTable(p.right.Rel.Name(), p.right.Rel)
}

func setupColdFuse(seed int64) (instance, error) {
	w := &coldFuse{
		seed: seed,
		p:    personPair(seed, coldFuseEntities, "s1", "s2", nil),
		db:   hummer.New(hummer.WithoutCache()),
		stmt: fuseSQL("s1", "s2"),
	}
	if err := registerPair(w.db, w.p); err != nil {
		return nil, err
	}
	res, err := w.db.Query(w.stmt)
	if err != nil {
		return nil, err
	}
	w.want = quickSum(res.Rel)
	return w, nil
}

func (w *coldFuse) close() {}

func (w *coldFuse) fingerprint() string {
	return fingerprintOf(w.stmt, w.p.left.Rel, w.p.right.Rel)
}

func (w *coldFuse) check(c *checker) {
	checkStatement(c, "cold_fuse", w.stmt, func(db *hummer.DB) error { return registerPair(db, w.p) })
	st, err := replayFusion(nil, 0, 0, w.stmt, w.p.left.Rel, w.p.right.Rel, w.p.truth(), false)
	if c.err("cold_fuse replay", err) {
		return
	}
	c.ok("cold_fuse dumas.f1", st.matchF1 >= matchF1Floor, fmt.Sprintf("%.3f below floor %.2f", st.matchF1, matchF1Floor))
	c.ok("cold_fuse dupdetect.f1", st.detectF1 >= detectF1Floor, fmt.Sprintf("%.3f below floor %.2f", st.detectF1, detectF1Floor))
}

// op issues the statement through the public entry point and checks
// the answer.
func (w *coldFuse) op(out *[]opSample) int {
	t := time.Now()
	res, err := w.db.Query(w.stmt)
	s := opSample{Kind: "fuse", Lat: time.Since(t), TTFR: -1}
	if err != nil || quickSum(res.Rel) != w.want {
		s.Failed = true
	} else {
		s.Rows = res.Rel.Len()
	}
	*out = append(*out, s)
	return 1
}

func (w *coldFuse) measure(d time.Duration) *measurement {
	m := closedLoop(d, w.op)
	// rows_per_s here is input rows fused per second.
	m.Rows = m.Units * w.p.rows()
	m.RowsTime = m.Wall
	return m
}

func (w *coldFuse) trace(rec *recorder, scale float64) (map[string]float64, int) {
	out := map[string]float64{}
	acc := &stageAcc{}
	n := scaled(36, scale)
	var untraced, traced time.Duration
	failed := 0
	for i := 1; i <= n; i++ {
		var one []opSample
		w.op(&one)
		untraced += one[0].Lat

		id := rec.start("op", 0, i)
		w.op(&one)
		traced += rec.end(id)
		if one[1].Failed {
			failed++
		}

		rid := rec.start("replay", 0, i)
		st, err := replayFusion(rec, rid, i, w.stmt, w.p.left.Rel, w.p.right.Rel, w.p.truth(), true)
		rec.end(rid)
		if err != nil {
			continue
		}
		acc.add(one[1].Lat, st)
	}
	acc.values(out)
	if acc.last != nil {
		stringKernels(w.seed, acc.last.merged, out)
	}
	dispatchCost(out)
	out["trace.overhead_ratio"] = ratio(float64(traced), float64(untraced))
	return out, failed
}
