package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hummer"
	"hummer/internal/datagen"
	"hummer/internal/sql"
	"hummer/internal/value"
)

const (
	// churnEntities sizes the one source pair of cache_churn.
	churnEntities = 200
	// churnThresholds x the four resolution functions = 1 024 distinct
	// statements against 256 entries per cache tier.
	churnThresholds = 256
	// churnBlock is the length of one schedule block.
	churnBlock = 4096
)

var churnFuncs = [4]string{"max", "min", "avg", "vote"}

// cacheChurn is the working set that does not fit: the fused and plan
// tiers evict, the match artifact is shared by every statement, and a
// detection is shared by the four statements of one threshold.
type cacheChurn struct {
	seed  int64
	db    *hummer.DB
	p     pair
	stmts []string
	// order is the schedule: every statement as often per block as a
	// Zipf(s = 1) law over a fixed ranking says, in seeded order. Exact
	// frequencies and a ranking that does not move with the seed keep
	// the hit ratio and the rows returned from depending on the draw.
	order []int
	pos   int
	want  map[int]uint64
}

func churnSQL(fn string, k int) string {
	return fmt.Sprintf("SELECT Name, RESOLVE(Age, %s) FUSE FROM c1, c2 WHERE Age >= %d FUSE BY (Name) ORDER BY Name", fn, k)
}

func setupCacheChurn(seed int64) (instance, error) {
	w := &cacheChurn{seed: seed, db: hummer.New(), want: map[int]uint64{}}
	// Ages spread over the whole threshold range, so that every
	// threshold filters a different set of rows.
	w.p = personPair(seed, churnEntities, "c1", "c2", func(people []datagen.Entity) {
		rng := rand.New(rand.NewSource(seed + 5))
		for i := range people {
			people[i].Fields["Age"] = value.NewInt(int64(rng.Intn(churnThresholds)))
		}
	})
	if err := registerPair(w.db, w.p); err != nil {
		return nil, err
	}
	// Statements in rank order: the thresholds in bit-reversed order, so
	// that the hot statements spread evenly over the range of
	// thresholds (0, 128, 64, 192, ...) whatever the seed.
	for r := 0; r < churnThresholds; r++ {
		k := int(bits.Reverse8(uint8(r)))
		for _, fn := range churnFuncs {
			w.stmts = append(w.stmts, churnSQL(fn, k))
		}
	}
	w.order = zipfSchedule(seed, len(w.stmts), churnBlock)
	// The cache-filling first operation is the hottest statement.
	res, err := w.db.Query(w.stmts[0])
	if err != nil {
		return nil, err
	}
	w.want[0] = quickSum(res.Rel)
	return w, nil
}

// zipfSchedule returns a block of length picks over n items: item r
// (rank r+1) appears in proportion to 1/(r+1), by largest remainder so
// the counts add up exactly; then the block is shuffled by the seed.
func zipfSchedule(seed int64, n, length int) []int {
	rng := rand.New(rand.NewSource(seed))
	var h float64
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	type share struct {
		item  int
		count int
		rem   float64
	}
	shares := make([]share, n)
	total := 0
	for r := range shares {
		exact := float64(length) / (float64(r+1) * h)
		c := int(math.Floor(exact))
		shares[r] = share{item: r, count: c, rem: exact - float64(c)}
		total += c
	}
	byRem := make([]int, n)
	for i := range byRem {
		byRem[i] = i
	}
	sort.SliceStable(byRem, func(a, b int) bool { return shares[byRem[a]].rem > shares[byRem[b]].rem })
	for i := 0; total < length; i++ {
		shares[byRem[i%n]].count++
		total++
	}
	out := make([]int, 0, length)
	for _, s := range shares {
		for i := 0; i < s.count; i++ {
			out = append(out, s.item)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *cacheChurn) close() {}

func (w *cacheChurn) fingerprint() string {
	var b strings.Builder
	for _, i := range w.order {
		fmt.Fprintf(&b, "%d,", i)
	}
	return fingerprintOf(b.String(), w.p.left.Rel, w.p.right.Rel)
}

// op issues the next statement of the schedule. A statement's first
// answer is remembered; every later one must equal it.
func (w *cacheChurn) op(out *[]opSample, rec *recorder) int {
	si := w.order[w.pos%len(w.order)]
	w.pos++
	id := rec.start("op", 0, w.pos)
	t := time.Now()
	res, err := w.db.Query(w.stmts[si])
	s := opSample{Kind: "fuse", Lat: time.Since(t), TTFR: -1}
	rec.end(id)
	if err != nil {
		s.Failed = true
	} else {
		s.Rows = res.Rel.Len()
		sum := quickSum(res.Rel)
		if want, seen := w.want[si]; seen {
			s.Failed = sum != want
		} else {
			w.want[si] = sum
		}
	}
	*out = append(*out, s)
	return 1
}

func (w *cacheChurn) measure(d time.Duration) *measurement {
	m := closedLoop(d, func(out *[]opSample) int { return w.op(out, nil) })
	// rows_per_s here is result rows returned per second.
	for _, o := range m.Ops {
		m.Rows += o.Rows
	}
	m.RowsTime = m.Wall
	return m
}

func (w *cacheChurn) check(c *checker) {
	// A hot, a middling and a cold statement, each against the
	// uncached, sequential and streamed paths.
	register := func(db *hummer.DB) error { return registerPair(db, w.p) }
	for _, si := range []int{0, 4*(churnThresholds/2) + 1, len(w.stmts) - 1} {
		want := checkStatement(c, fmt.Sprintf("cache_churn statement %d", si), w.stmts[si], register)
		// And the churned DB itself, whatever state its tiers are in.
		res, err := w.db.Query(w.stmts[si])
		if c.err("cache_churn churned query", err) {
			continue
		}
		c.same(fmt.Sprintf("cache_churn statement %d: churned DB vs fresh uncached DB", si), want, digest(res.Rel))
	}
}

func (w *cacheChurn) trace(rec *recorder, scale float64) (map[string]float64, int) {
	out := map[string]float64{}
	n := scaled(8000, scale)
	var plain, spanned []opSample

	// Untraced and traced passes over the same stretch of the schedule
	// would see different cache states; instead the overhead is read
	// off two adjacent stretches of equal length and their warm hits,
	// whose cost does not depend on the state.
	for i := 0; i < n; i++ {
		w.op(&plain, nil)
	}
	c0 := w.db.Stats().Cache
	for i := 0; i < n; i++ {
		w.op(&spanned, rec)
	}
	cacheDelta(c0, w.db.Stats().Cache, out)
	failed := 0
	for _, o := range spanned {
		if o.Failed {
			failed++
		}
	}
	all := func(opSample) bool { return true }
	hitPlain, hitSpanned := latencies(plain, all), latencies(spanned, all)
	sort.Float64s(hitPlain)
	sort.Float64s(hitSpanned)
	// The lower quartile of either pass is a fused-tier hit.
	out["trace.overhead_ratio"] = ratio(percentile(hitSpanned, 0.25), percentile(hitPlain, 0.25))
	out["plan.fused_hit_us"] = percentile(hitSpanned, 0.25) * 1000

	// Stage replays of a sample of the statements, uncached.
	acc := &stageAcc{}
	var parse []float64
	reps := scaled(64, scale)
	for i := 0; i < reps; i++ {
		op := 2*n + i + 1
		text := w.stmts[w.order[(i*37)%len(w.order)]]
		id := rec.start("replay", 0, op)
		st, err := replayFusion(rec, id, op, text, w.p.left.Rel, w.p.right.Rel, nil, true)
		rec.end(id)
		if err != nil {
			continue
		}
		acc.add(0, st)
	}
	acc.values(out)
	out["plan.self_ms"] = 0 // no cold public-entry time to set the pipeline against here
	for _, text := range w.stmts[:64] {
		parse = append(parse, micros(rec.timed("sql.parse", 0, 0, func() { _, _ = sql.Parse(text) })))
	}
	out["sql.parse_us"] = median(parse)
	if acc.last != nil {
		stringKernels(w.seed, acc.last.merged, out)
	}
	dispatchCost(out)
	return out, failed
}
