package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hummer"
	"hummer/internal/loadgen"
	"hummer/internal/plan"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/server"
	"hummer/internal/sql"
)

// serveEntities sizes the loadgen fixture: lg_s1 and lg_s2 come to
// about 360 rows each, lg_big to 800. Six distinct statements: the
// working set is far below the 256 entries of each cache tier.
const serveEntities = 400

// serveClients is the number of load-generating clients (and
// connections) of warm_serve; main sets it from -clients.
var serveClients = 2

// serveClass is one request class of the served mix.
type serveClass struct {
	name    string
	weight  int
	path    string
	payload []byte
	stream  bool
	// statements is how many statements one request carries, for the
	// reconciliation with the server's own count.
	statements int
	// want is the checksum of the response body a correct server
	// returns, taken from the cache-filling request in set-up.
	want uint64
}

// serveMix is the six-class mix, weights as in the issue; there is no
// purge class: this workload is the fits-in-cache one.
func serveMix() []*serveClass {
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // static payloads of strings and bools
		}
		return b
	}
	q := func(sql string, lineage bool) []byte { return body(map[string]any{"sql": sql, "lineage": lineage}) }
	return []*serveClass{
		{name: "warm_fuse", weight: 4, path: "/v1/query", payload: q(loadgen.FuseSQL, false), statements: 1},
		{name: "warm_fuse_lineage", weight: 1, path: "/v1/query", payload: q(loadgen.FuseSQL, true), statements: 1},
		{name: "select_mat", weight: 2, path: "/v1/query", payload: q(loadgen.SelectSQL, false), statements: 1},
		{name: "select_stream", weight: 2, path: "/v1/query/stream", payload: q(loadgen.SelectSQL, false), stream: true, statements: 1},
		{name: "fuse_stream", weight: 2, path: "/v1/query/stream", payload: q(loadgen.FuseSQL, false), stream: true, statements: 1},
		{name: "batch", weight: 1, path: "/v1/batch", statements: 2,
			payload: body(map[string]any{"statements": []string{loadgen.FuseSQL, loadgen.SelectSQL}})},
	}
}

// warmServe is hummerd's handler behind a loopback listener, driven
// over real HTTP connections from this process.
type warmServe struct {
	seed    int64
	db      *hummer.DB
	ts      *httptest.Server
	client  *http.Client
	classes []*serveClass
	// order is the seeded request schedule: blocks holding every class
	// in exact proportion to its weight, shuffled.
	order []int
	next  atomic.Int64
	// rec is the span recorder the handler wrapper writes to during a
	// traced run; nil otherwise.
	rec atomic.Pointer[recorder]
}

const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

func setupWarmServe(seed int64) (instance, error) {
	w := &warmServe{seed: seed, db: hummer.New(), classes: serveMix()}
	// hummerd's defaults: 60 s query timeout, unbounded admission, the
	// default trace ring. Logs go nowhere.
	srv := server.New(w.db,
		server.WithQueryTimeout(60*time.Second),
		server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	inner := srv.Handler()
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.rec.Load()
		if rec == nil {
			inner.ServeHTTP(rw, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(hdrOp))
		parent, _ := strconv.Atoi(r.Header.Get(hdrParent))
		id := rec.start("server.handler", parent, op)
		inner.ServeHTTP(rw, r)
		rec.end(id)
	}))
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}}

	if err := loadgen.Setup(context.Background(), w.client, w.ts.URL, seed, serveEntities); err != nil {
		w.close()
		return nil, err
	}
	// One request per class fills every cache tier the mix touches and
	// fixes the expected response bodies.
	for _, c := range w.classes {
		r := w.request(c, 0, 0)
		if !r.ok {
			w.close()
			return nil, fmt.Errorf("first %s request failed with status %d", c.name, r.status)
		}
		c.want = r.sum
	}
	// A long block: with two connections a slow request right behind
	// another makes the next one wait, so the open-loop tail follows how
	// often the order puts slow classes side by side. Over 6 000 picks
	// that frequency is the same for every seed; over a short block
	// repeated it is one small permutation's luck.
	const block = 500
	w.order = weightedBlock(w.classes, block)
	rand.New(rand.NewSource(seed)).Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	return w, nil
}

// weightedBlock lists class indices, each weight*times times.
func weightedBlock(classes []*serveClass, times int) []int {
	var out []int
	for ci, c := range classes {
		for i := 0; i < c.weight*times; i++ {
			out = append(out, ci)
		}
	}
	return out
}

func (w *warmServe) close() {
	w.ts.Close()
	w.client.CloseIdleConnections()
}

func (w *warmServe) fingerprint() string {
	var rels []*relation.Relation
	for _, a := range []string{"lg_s1", "lg_s2", "lg_big"} {
		if rel, err := w.db.Table(a); err == nil {
			rels = append(rels, rel)
		}
	}
	return fingerprintOf(fmt.Sprint(w.order), rels...)
}

// response is one request's outcome.
type response struct {
	status int
	ok     bool // status 200 and the expected body
	lat    time.Duration
	ttfr   time.Duration
	rows   int
	bytes  int
	sum    uint64
}

var (
	rowPrefix     = []byte(`{"type":"row"`)
	secondsMarker = []byte(`"seconds":`)
)

// request sends one request of class c and reads the whole response.
// op and parent, when set, tie the handler's span to the client's.
func (w *warmServe) request(c *serveClass, op, parent int) response {
	r := response{ttfr: -1}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, w.ts.URL+c.path, bytes.NewReader(c.payload))
	if err != nil {
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrParent, strconv.Itoa(parent))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	h := fnv.New64a()
	if c.stream {
		// Row records are read as they arrive; the first one stamps the
		// time to first row.
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 {
				_, _ = h.Write(line) // hash.Hash never fails
				r.bytes += len(line)
				if bytes.HasPrefix(line, rowPrefix) {
					if r.ttfr < 0 {
						r.ttfr = time.Since(start)
					}
					r.rows++
				}
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err != nil {
				if err != io.EOF {
					return r
				}
				break
			}
		}
	} else {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return r
		}
		r.bytes = len(body)
		// A batch response carries each statement's elapsed seconds;
		// everything else in every body is a function of the data.
		for {
			i := bytes.Index(body, secondsMarker)
			if i < 0 {
				break
			}
			_, _ = h.Write(body[:i])
			body = body[i+len(secondsMarker):]
			if j := bytes.IndexAny(body, ",}"); j >= 0 {
				body = body[j:]
			}
		}
		_, _ = h.Write(body)
	}
	r.lat = time.Since(start)
	r.sum = h.Sum64()
	r.ok = r.status == http.StatusOK && (c.want == 0 || r.sum == c.want)
	return r
}

func (w *warmServe) nextClass() *serveClass {
	i := int(w.next.Add(1)-1) % len(w.order)
	return w.classes[w.order[i]]
}

// closed runs clients closed-loop workers for d and returns their
// samples; every worker sends its next request when the previous one
// has completed.
func (w *warmServe) closed(d time.Duration, clients int) []opSample {
	per := make([][]opSample, clients)
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Now().Before(end) {
				c := w.nextClass()
				r := w.request(c, 0, 0)
				s := opSample{Kind: c.name, Lat: r.lat, TTFR: -1, Rows: r.rows, Failed: !r.ok}
				// ttfr_p50_ms is the streamed plain SELECT's alone: the
				// median over two stream classes of different cost would
				// sit on the boundary between them.
				if c.name == "select_stream" {
					s.TTFR = r.ttfr
				}
				per[ci] = append(per[ci], s)
			}
		}(ci)
	}
	wg.Wait()
	var out []opSample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// open runs the open loop at rate for d.
func (w *warmServe) open(rate int, d time.Duration, clients int) []openSample {
	n := int(float64(rate) * d.Seconds())
	return runOpen(wallClock{t0: time.Now()}, float64(rate), n, clients, func(int) bool {
		return w.request(w.nextClass(), 0, 0).ok
	})
}

// measure: a tenth warm-up, then phase A (closed loop, all clients)
// for four tenths and phase B (open loop, constant arrivals at the mid
// fixed rate) for five tenths of d.
func (w *warmServe) measure(d time.Duration) *measurement {
	share := func(f float64) time.Duration { return time.Duration(float64(d) * f) }
	w.closed(share(warmShare), serveClients)
	runtime.GC()
	before := readUsage()
	m := &measurement{Ops: w.closed(share(0.4), serveClients)}
	after := readUsage()
	m.Units = len(m.Ops)
	m.Wall = after.at.Sub(before.at)
	m.Alloc = after.alloc - before.alloc
	m.CPU = after.cpu - before.cpu
	// rows_per_s here is NDJSON row records received per second.
	for _, o := range m.Ops {
		m.Rows += o.Rows
	}
	m.RowsTime = m.Wall
	m.Open = w.open(openRates[1], share(0.5), serveClients)
	m.OpenLimit = openLimit
	return m
}

// --- Correctness -------------------------------------------------------------------

// textDigest is digest without the cell kinds: the SHA-256 of the
// column names and every cell's text. JSON carries numbers and
// strings, not HumMer's value kinds, so the served answer and the
// in-process one are compared as text.
func textDigest(cols []string, rows int, cell func(i, j int) string) string {
	h := sha256.New()
	for _, c := range cols {
		fmt.Fprintf(h, "%d:%s|", len(c), c)
	}
	for i := 0; i < rows; i++ {
		for j := range cols {
			t := cell(i, j)
			fmt.Fprintf(h, "%d:%s|", len(t), t)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jsonRows digests the rows of a decoded response.
func jsonRows(cols []string, rows [][]any) string {
	return textDigest(cols, len(rows), func(i, j int) string {
		if j >= len(rows[i]) {
			return "<missing cell>"
		}
		switch x := rows[i][j].(type) {
		case nil:
			return ""
		case json.Number:
			return x.String()
		default:
			return fmt.Sprint(x)
		}
	})
}

// relRows digests a relation the same way.
func relRows(rel *hummer.Relation) string {
	return textDigest(rel.Schema().Names(), rel.Len(), func(i, j int) string { return rel.Row(i)[j].Text() })
}

// fetch posts payload and decodes the JSON response into into.
func (w *warmServe) fetch(path string, payload []byte, into any) error {
	resp, err := w.client.Post(w.ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	return dec.Decode(into)
}

type queryBody struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// statementCount reads the DB's statement counter through /v1/stats.
func (w *warmServe) serverStats() (queries uint64, rejected uint64, cache qcache.Stats, err error) {
	resp, err := w.client.Get(w.ts.URL + "/v1/stats")
	if err != nil {
		return 0, 0, cache, err
	}
	defer resp.Body.Close()
	var st struct {
		Rejected uint64       `json:"rejected_queries"`
		DB       hummer.Stats `json:"db"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, cache, err
	}
	return st.DB.Queries, st.Rejected, st.DB.Cache, nil
}

func (w *warmServe) check(c *checker) {
	// What the server answers must be what a fresh, uncached,
	// in-process DB over the same relations answers.
	fresh := hummer.New(hummer.WithoutCache())
	for _, a := range []string{"lg_s1", "lg_s2", "lg_big"} {
		rel, err := w.db.Table(a)
		if c.err("warm_serve table "+a, err) {
			return
		}
		if c.err("warm_serve register "+a, fresh.RegisterTable(a, rel)) {
			return
		}
	}
	want := map[string]string{}
	for _, stmt := range []string{loadgen.FuseSQL, loadgen.SelectSQL} {
		res, err := fresh.Query(stmt)
		if c.err("warm_serve fresh query", err) {
			return
		}
		want[stmt] = relRows(res.Rel)
	}
	classStmt := map[string]string{
		"warm_fuse": loadgen.FuseSQL, "warm_fuse_lineage": loadgen.FuseSQL, "select_mat": loadgen.SelectSQL,
		"select_stream": loadgen.SelectSQL, "fuse_stream": loadgen.FuseSQL,
	}
	for _, cl := range w.classes {
		switch {
		case cl.name == "batch":
			var body struct {
				Results []queryBody `json:"results"`
			}
			if c.err("warm_serve batch", w.fetch(cl.path, cl.payload, &body)) || len(body.Results) != 2 {
				continue
			}
			c.same("warm_serve batch[0] vs fresh uncached DB", want[loadgen.FuseSQL], jsonRows(body.Results[0].Columns, body.Results[0].Rows))
			c.same("warm_serve batch[1] vs fresh uncached DB", want[loadgen.SelectSQL], jsonRows(body.Results[1].Columns, body.Results[1].Rows))
		case cl.stream:
			cols, rows, err := w.fetchStream(cl)
			if c.err("warm_serve "+cl.name, err) {
				continue
			}
			c.same("warm_serve "+cl.name+" streamed vs fresh uncached DB", want[classStmt[cl.name]], jsonRows(cols, rows))
		default:
			var body queryBody
			if c.err("warm_serve "+cl.name, w.fetch(cl.path, cl.payload, &body)) {
				continue
			}
			c.same("warm_serve "+cl.name+" vs fresh uncached DB", want[classStmt[cl.name]], jsonRows(body.Columns, body.Rows))
		}
		// And the bytes must repeat.
		r := w.request(cl, 0, 0)
		c.ok("warm_serve "+cl.name+" repeats byte for byte", r.ok, fmt.Sprintf("status %d, body checksum %x, want %x", r.status, r.sum, cl.want))
	}

	// The server's statement count must equal what the clients sent.
	q0, _, _, err := w.serverStats()
	if c.err("warm_serve /v1/stats", err) {
		return
	}
	sent := 0
	for _, cl := range w.classes {
		if w.request(cl, 0, 0).ok {
			sent += cl.statements
		}
	}
	q1, _, _, err := w.serverStats()
	if c.err("warm_serve /v1/stats", err) {
		return
	}
	c.ok("warm_serve server.count_mismatch", int(q1-q0) == sent, fmt.Sprintf("clients sent %d statements, server counted %d", sent, q1-q0))
}

// fetchStream reads an NDJSON response into columns and rows.
func (w *warmServe) fetchStream(cl *serveClass) ([]string, [][]any, error) {
	resp, err := w.client.Post(w.ts.URL+cl.path, "application/json", bytes.NewReader(cl.payload))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: status %d", cl.path, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var cols []string
	var rows [][]any
	sawSummary := false
	for {
		var rec struct {
			Type    string   `json:"type"`
			Columns []string `json:"columns"`
			Row     []any    `json:"row"`
			Error   string   `json:"error"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
		switch rec.Type {
		case "schema":
			cols = rec.Columns
		case "row":
			rows = append(rows, rec.Row)
		case "summary":
			sawSummary = true
		case "error":
			return nil, nil, fmt.Errorf("stream error trailer: %s", rec.Error)
		}
	}
	if !sawSummary {
		return nil, nil, fmt.Errorf("stream ended without a summary trailer")
	}
	return cols, rows, nil
}

// --- Traced run --------------------------------------------------------------------

func (w *warmServe) trace(rec *recorder, scale float64) (map[string]float64, int) {
	out := map[string]float64{}
	ctx := context.Background()

	// 1. The closed loop again, a fixed number of requests, once with
	// the recorder off and once with it on: op (client) > server.handler.
	n := scaled(2400, scale)
	w.fixedClosed(nil, n/4) // the first pass of a pair would otherwise pay the warm-up
	untraced := w.fixedClosed(nil, n)
	q0, _, c0, err0 := w.serverStats()
	stall0, rows0 := plan.StreamStallSnapshot(), plan.StreamProducedRows()
	w.rec.Store(rec)
	traced := w.fixedClosed(rec, n)
	w.rec.Store(nil)
	q1, rejected, c1, err1 := w.serverStats()
	stall1, rows1 := plan.StreamStallSnapshot(), plan.StreamProducedRows()
	out["trace.overhead_ratio"] = ratio(traced.wall.Seconds(), untraced.wall.Seconds())

	byClass := map[string][]float64{}
	var bytesTotal, failed, statements int
	for _, s := range traced.samples {
		if !s.ok {
			failed++
			continue
		}
		byClass[s.class.name] = append(byClass[s.class.name], ms(s.lat))
		bytesTotal += s.bytes
		statements += s.class.statements
	}
	for _, name := range serverClasses {
		xs := byClass[name]
		out["server.class."+name+".p50_ms"] = median(xs)
		out["server.class."+name+".p95_ms"], _ = tail(xs, 0.95)
	}
	out["server.resp_bytes_per_op"] = ratio(float64(bytesTotal), float64(len(traced.samples)-failed))
	out["lineage.overhead_ratio"] = ratio(out["server.class.warm_fuse_lineage.p50_ms"], out["server.class.warm_fuse.p50_ms"])
	if err0 == nil && err1 == nil {
		out["server.rejected"] = float64(rejected)
		out["server.count_mismatch"] = float64(statements) - float64(q1-q0)
		cacheDelta(c0, c1, out)
	}
	out["plan.stream_rows"] = float64(rows1 - rows0)
	out["plan.stream_stall_p95_us"] = histP95Micros(stall0.Bounds, stall0.Buckets, stall1.Buckets)

	// 2. The same statements in process, each call into one layer.
	const reps = 200
	var hit, ttfr, parse, fp []float64
	big, _ := w.db.Table("lg_big")
	for i := 0; i < reps; i++ {
		op := n + i + 1
		id := rec.start("replay", 0, op)
		hit = append(hit, micros(rec.timed("plan.fused_hit", id, op, func() {
			_, _ = w.db.Query(loadgen.FuseSQL, hummer.WithoutTrace(), hummer.WithLineage(false))
		})))
		parse = append(parse, micros(rec.timed("sql.parse", id, op, func() { _, _ = sql.Parse(loadgen.FuseSQL) })))
		sid := rec.start("plan.stream", id, op)
		t := time.Now()
		if rows, err := w.db.QueryRows(ctx, loadgen.SelectSQL, hummer.WithoutTrace(), hummer.WithLineage(false)); err == nil {
			if _, first, err := drain(rows, t); err == nil {
				ttfr = append(ttfr, micros(first))
			}
		}
		rec.end(sid)
		if big != nil && i < 20 {
			fp = append(fp, ms(rec.timed("qcache.fingerprint", id, op, func() { qcache.FingerprintRelation(big) })))
		}
		rec.end(id)
	}
	cache := qcache.New(0)
	key := qcache.PlanKey("probe")
	compute := func(context.Context) (any, error) { return 1, nil }
	_, _, _ = cache.DoContext(ctx, key, compute)
	const hits = 100000
	t := time.Now()
	for i := 0; i < hits; i++ {
		_, _, _ = cache.DoContext(ctx, key, compute)
	}
	out["qcache.do_hit_ns"] = float64(time.Since(t)) / hits
	out["plan.fused_hit_us"] = median(hit)
	out["plan.stream_ttfr_us"] = median(ttfr)
	out["sql.parse_us"] = median(parse)
	out["qcache.fingerprint_ms"] = median(fp)
	out["server.overhead_us"] = nonNegative(out["server.class.warm_fuse.p50_ms"]*1000 - out["plan.fused_hit_us"])

	// 3. The open loop at each fixed rate.
	each := time.Duration(3 * scale * float64(time.Second))
	for i, rate := range openRates {
		samples := w.open(rate, each, serveClients)
		var lat, late []float64
		bad := 0
		for _, s := range samples {
			if !s.OK {
				bad++
				continue
			}
			lat = append(lat, ms(s.latency()))
			late = append(late, ms(s.late()))
		}
		p95, _ := tail(lat, 0.95)
		out[openRateMetric(rate)] = p95
		if i == 1 {
			out["loadgen.late_p95_ms"], _ = tail(late, 0.95)
		}
		// A rate holds when its tail meets the limit, nothing failed and
		// the generator did not fall steadily further behind.
		if bad == 0 && p95 <= ms(openLimit) && !backlogGrows(samples, openLimit/4) {
			out["server.open.max_rate_ok"] = float64(rate)
		}
		failed += bad
	}
	return out, failed
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

type tracedSample struct {
	class *serveClass
	response
}

type fixedRun struct {
	samples []tracedSample
	wall    time.Duration
}

// fixedClosed sends exactly n requests of the schedule from the
// closed-loop clients, under op spans when rec is set.
func (w *warmServe) fixedClosed(rec *recorder, n int) fixedRun {
	samples := make([]tracedSample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				c := w.classes[w.order[i%len(w.order)]]
				id := rec.start("op", 0, i+1)
				samples[i] = tracedSample{class: c, response: w.request(c, i+1, id)}
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	return fixedRun{samples: samples, wall: time.Since(start)}
}

// cacheDelta reports the artifact cache's traffic between two
// snapshots: exact counts, one per tier and counter.
func cacheDelta(before, after qcache.Stats, out map[string]float64) {
	var served, total float64
	for _, k := range cacheKinds {
		b, a := before.Kinds[qcache.Kind(k)], after.Kinds[qcache.Kind(k)]
		hits, misses, shared := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses), float64(a.Shared-b.Shared)
		out["qcache."+k+".hits"] = hits
		out["qcache."+k+".misses"] = misses
		out["qcache."+k+".shared"] = shared
		out["qcache."+k+".evictions"] = float64(a.Evictions - b.Evictions)
		served += hits + shared
		total += hits + shared + misses
	}
	out["qcache.hit_ratio"] = ratio(served, total)
	out["qcache.entries"] = float64(after.Entries)
}

// histP95Micros reads the 95th percentile off the difference of two
// snapshots of one of the program's fixed-bucket histograms: the upper
// bound of the bucket the percentile falls in (0 when nothing was
// observed in between).
func histP95Micros(bounds []float64, before, after []uint64) float64 {
	var total uint64
	delta := make([]uint64, len(after))
	for i := range after {
		delta[i] = after[i]
		if i < len(before) {
			delta[i] -= before[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.95 + 0.5)
	var seen uint64
	for i, d := range delta {
		seen += d
		if seen >= want {
			if i < len(bounds) {
				return bounds[i] * 1e6
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1] * 1e6
}
