// Package hummer is the public API of the Humboldt Merger (HumMer), a
// reproduction of "Automatic Data Fusion with HumMer" (Bilke,
// Bleiholder, Böhm, Draba, Naumann, Weis — VLDB 2005).
//
// HumMer fuses heterogeneous, duplicate-ridden, conflicting data in
// three fully automatic steps driven by a single query:
//
//  1. instance-based schema matching (DUMAS) aligns the attributes of
//     differently-labelled tables,
//  2. duplicate detection finds multiple representations of the same
//     real-world object, and
//  3. data fusion merges each duplicate group into one consistent
//     tuple, resolving value conflicts with per-column resolution
//     functions.
//
// The entry point is a DB: register data sources under aliases, then
// issue Fuse By queries:
//
//	db := hummer.New()
//	db.RegisterCSV("EE_Student", "ee.csv")
//	db.RegisterCSV("CS_Students", "cs.csv")
//	res, err := db.Query(`
//	    SELECT Name, RESOLVE(Age, max)
//	    FUSE FROM EE_Student, CS_Students
//	    FUSE BY (Name)`)
package hummer

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hummer/internal/core"
	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/fault"
	"hummer/internal/fusion"
	"hummer/internal/lineage"
	"hummer/internal/metadata"
	"hummer/internal/parshard"
	"hummer/internal/plan"
	"hummer/internal/qcache"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/value"
)

// Re-exported data-model types. These aliases let callers name the
// types the API returns without reaching into internal packages.
type (
	// Relation is an in-memory table: a schema plus rows of values.
	Relation = relation.Relation
	// Row is one tuple of a relation.
	Row = relation.Row
	// Value is a dynamically typed scalar (NULL, string, int, float,
	// bool, time).
	Value = value.Value
	// Schema is an ordered list of named, typed columns.
	Schema = schema.Schema
	// LineageSet names the sources and rows a fused value came from.
	LineageSet = lineage.Set
	// ResolutionSpec names a conflict-resolution function plus its
	// optional argument, e.g. {Name: "choose", Arg: "shopB"}.
	ResolutionSpec = fusion.Spec
	// ResolutionContext is the query context a custom resolution
	// function receives.
	ResolutionContext = fusion.Context
	// ResolutionFunc is a user-defined conflict-resolution function.
	ResolutionFunc = fusion.Func
	// PipelineResult exposes every intermediate of a fusion run
	// (sources, matches, merged table, detection, fused output).
	PipelineResult = core.Result
	// PipelineOptions configures a programmatic fusion run.
	PipelineOptions = core.Options
	// Correspondence is one matched attribute pair proposed by schema
	// matching.
	Correspondence = dumas.Correspondence
	// MatchResult is the full DUMAS schema-matching output:
	// correspondences, the duplicate tuple pairs they were derived
	// from, the averaged field-similarity matrix and discovery
	// statistics.
	MatchResult = dumas.Result
	// MatchConfig tunes DUMAS schema matching: the number of
	// duplicates used, similarity thresholds, candidate-generation
	// strategy (token index by default, Window for sorted-neighborhood)
	// and Parallelism (0 = GOMAXPROCS; the result is byte-identical at
	// every worker count).
	MatchConfig = dumas.Config
	// MatchStats reports the candidate counts of a matching run.
	MatchStats = dumas.Stats
	// Detection is the duplicate-detection output (clusters, scored
	// pairs, borderline cases, comparison statistics).
	Detection = dupdetect.Result
	// DetectionConfig tunes duplicate detection: threshold, attribute
	// selection, candidate-generation strategy (exhaustive, Window for
	// sorted-neighborhood, Blocking for prefix blocking) and
	// Parallelism (0 = GOMAXPROCS; the result is byte-identical at
	// every worker count).
	DetectionConfig = dupdetect.Config
	// DetectionStats reports the comparison counts of a detection run.
	DetectionStats = dupdetect.Stats
	// CacheStats reports the artifact cache's traffic per artifact
	// kind (parsed plans, DUMAS matches, detection results).
	CacheStats = qcache.Stats
	// FusionSummary condenses what a fusion query's pipeline did —
	// the wizard visualization's numbers without the tables. Present
	// on every fusion Result (including slim cache hits) as
	// Result.Summary.
	FusionSummary = core.Summary
	// Rows is a streaming cursor over one query's result: Next/Scan/
	// Err/Close plus a Go 1.23 All() adapter. See DB.QueryRows.
	Rows = plan.Rows
	// InternalError is the typed error a contained panic becomes: it
	// records the goroutine boundary (Site), the recovered value and
	// the stack. Queries that hit one fail with this error (HTTP 500
	// in hummerd) while the process and the DB stay usable; match it
	// with errors.As.
	InternalError = fault.InternalError
	// Values re-exported for building rows and custom resolution
	// functions.
	Kind = value.Kind
)

// ErrAliasConflict is returned (wrapped) by the Register* methods
// when an alias is re-registered with different data; match it with
// errors.Is and use the Replace* methods to overwrite deliberately.
var ErrAliasConflict = metadata.ErrAliasConflict

// Value constructors, re-exported for convenience.
var (
	// Null is the NULL value.
	Null = value.Null
	// NewString wraps a string.
	NewString = value.NewString
	// NewInt wraps an int64.
	NewInt = value.NewInt
	// NewFloat wraps a float64.
	NewFloat = value.NewFloat
	// NewBool wraps a bool.
	NewBool = value.NewBool
	// NewTime wraps a time.Time.
	NewTime = value.NewTime
	// ParseValue infers the most specific value from raw text.
	ParseValue = value.Parse
)

// Result is the outcome of one query: the result table, per-cell
// lineage for fusion queries, and the pipeline intermediates.
type Result = plan.QueryResult

// DB is a HumMer instance: a metadata repository of registered
// sources, a resolution-function registry, a versioned artifact cache
// and a query executor. A DB is safe for concurrent use: queries may
// run in parallel with each other and with registrations —
// registered relations are treated as immutable, each query executes
// over a private snapshot of the configuration, and the expensive
// pipeline artifacts (DUMAS matches, duplicate detections, parsed
// plans) are shared through the fingerprint-keyed cache, where a
// thundering herd of identical queries computes each artifact once.
type DB struct {
	repo     *metadata.Repository
	registry *fusion.Registry
	cache    *qcache.Cache

	// mu guards the per-query configuration and wizard hooks below;
	// Query snapshots them so in-flight queries are unaffected by
	// concurrent Set* calls.
	mu                sync.RWMutex
	detect            dupdetect.Config
	match             dumas.Config
	parallelism       int
	onCorrespondences func(sourceAlias string, proposed []dumas.Correspondence) []dumas.Correspondence
	onAttributes      func(proposed []string) []string
	onDuplicates      func(det *dupdetect.Result, merged *relation.Relation) []int

	queries     atomic.Uint64
	fuseQueries atomic.Uint64
	queryErrors atomic.Uint64
}

// Option configures a DB at construction.
type Option func(*DB)

// WithCacheCapacity bounds the artifact cache to n entries (the
// default is qcache.DefaultCapacity). n <= 0 keeps the default.
func WithCacheCapacity(n int) Option {
	return func(db *DB) { db.cache = qcache.New(n) }
}

// WithoutCache disables the artifact cache: every query recomputes
// matching and detection from scratch (the seed behaviour).
func WithoutCache() Option {
	return func(db *DB) { db.cache = nil }
}

// WithParallelism sets the unified parallelism knob at construction —
// the construction-time form of SetParallelism.
func WithParallelism(n int) Option {
	return func(db *DB) { db.parallelism = n }
}

// New creates an empty HumMer instance with the built-in resolution
// functions (Coalesce, First, Last, Vote, Group, Concat, AnnConcat,
// Shortest, Longest, Choose, MostRecent, min, max, sum, avg, count,
// median, stddev) and a default-sized artifact cache.
func New(opts ...Option) *DB {
	db := &DB{
		repo:     metadata.NewRepository(),
		registry: fusion.NewRegistry(),
		cache:    qcache.New(0),
	}
	for _, o := range opts {
		o(db)
	}
	return db
}

// newPipeline builds a fresh pipeline over the shared repo, registry
// and cache with a snapshot of the current hooks, taken under one
// lock. Callers hold no lock.
func (db *DB) newPipeline() *core.Pipeline {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.newPipelineLocked()
}

func (db *DB) newPipelineLocked() *core.Pipeline {
	return &core.Pipeline{
		Repo:              db.repo,
		Registry:          db.registry,
		Cache:             db.cache,
		OnCorrespondences: db.onCorrespondences,
		OnAttributes:      db.onAttributes,
		OnDuplicates:      db.onDuplicates,
	}
}

// newExecutor builds a per-query executor with a snapshot of the
// current configuration and hooks, taken atomically under one lock,
// so concurrent Set*/On* calls never race with an in-flight query or
// tear its configuration. Per-query option overrides (WithDetectConfig,
// WithMatchConfig) replace the snapshot wholesale.
func (db *DB) newExecutor(cfg *queryConfig) *plan.Executor {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := &plan.Executor{
		Repo:     db.repo,
		Registry: db.registry,
		Pipeline: db.newPipelineLocked(),
		Detect:   db.detect,
		Match:    db.match,
		Cache:    db.cache,
		Parallel: db.parallelism,
	}
	if cfg != nil {
		if cfg.detect != nil {
			e.Detect = *cfg.detect
		}
		if cfg.match != nil {
			e.Match = *cfg.match
		}
	}
	return e
}

// --- Per-query options ------------------------------------------------------

// queryConfig is the resolved form of a QueryOption list. The zero
// value reproduces the historical behaviour exactly.
type queryConfig struct {
	trace     bool
	noTrace   bool
	noLineage bool
	timeout   time.Duration
	detect    *dupdetect.Config
	match     *dumas.Config
}

func resolveOptions(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

func (cfg *queryConfig) exec() plan.ExecOptions {
	return plan.ExecOptions{
		Trace:     cfg.trace,
		NoTrace:   cfg.noTrace,
		NoLineage: cfg.noLineage,
		Timeout:   cfg.timeout,
	}
}

// QueryOption configures one query. Options make trace intermediates
// and lineage opt-in/opt-out per query instead of DB-global state, and
// let a single statement carry its own pipeline configuration and
// deadline.
type QueryOption func(*queryConfig)

// WithTrace requests the pipeline intermediates: the Result's
// Pipeline field is guaranteed non-nil for fusion statements. A
// tracing query bypasses the fused-result cache tier (whose entries
// are slim and carry no intermediates) and recomputes the pipeline;
// the per-phase match/detect tiers still apply, so the recompute is
// cheap on a warm cache.
func WithTrace() QueryOption {
	return func(cfg *queryConfig) { cfg.trace = true }
}

// WithoutTrace drops the pipeline intermediates from the Result even
// when a cache-missing run computed them — the slimmest result for
// callers that only need the table (and, for fusion, the Summary).
// Servers use this: hummerd's endpoints never retain intermediates.
func WithoutTrace() QueryOption {
	return func(cfg *queryConfig) { cfg.noTrace = true }
}

// WithLineage includes (true, the historical default) or drops
// (false) the per-cell lineage of fusion results.
func WithLineage(on bool) QueryOption {
	return func(cfg *queryConfig) { cfg.noLineage = !on }
}

// WithDetectConfig runs this query with its own duplicate-detection
// configuration instead of the DB-wide SetDetectConfig default.
func WithDetectConfig(cfg DetectionConfig) QueryOption {
	return func(qc *queryConfig) { qc.detect = &cfg }
}

// WithMatchConfig runs this query with its own DUMAS schema-matching
// configuration instead of the DB-wide SetMatchConfig default.
func WithMatchConfig(cfg MatchConfig) QueryOption {
	return func(qc *queryConfig) { qc.match = &cfg }
}

// WithTimeout bounds this query with its own deadline, layered over
// (never extending) the caller's context. In a batch, the deadline
// applies to each statement individually.
func WithTimeout(d time.Duration) QueryOption {
	return func(cfg *queryConfig) {
		if d > 0 {
			cfg.timeout = d
		}
	}
}

// RegisterTable registers an in-memory relation under alias.
// Re-registering an alias with equal data is an idempotent no-op;
// re-registering it with different data returns an error (use
// ReplaceTable to overwrite deliberately).
func (db *DB) RegisterTable(alias string, rel *Relation) error {
	return db.repo.RegisterRelation(alias, rel)
}

// RegisterCSV registers a CSV file (first row = header) under alias.
func (db *DB) RegisterCSV(alias, path string) error {
	return db.repo.RegisterCSV(alias, path)
}

// RegisterJSON registers a JSON file (array of flat objects) under
// alias.
func (db *DB) RegisterJSON(alias, path string) error {
	return db.repo.RegisterJSON(alias, path)
}

// RegisterXML registers an XML file under alias; recordTag names the
// repeated element that forms one tuple.
func (db *DB) RegisterXML(alias, path, recordTag string) error {
	return db.repo.RegisterXML(alias, path, recordTag)
}

// ReplaceTable overwrites (or creates) the alias with a new in-memory
// relation, bumping the alias's generation. Cached artifacts derived
// from the old data stop being addressed — they are keyed by content
// fingerprints — and age out of the cache.
func (db *DB) ReplaceTable(alias string, rel *Relation) error {
	return db.repo.Replace(metadata.NewRelationSource(alias, rel))
}

// ReplaceCSV overwrites (or creates) the alias with a CSV file.
func (db *DB) ReplaceCSV(alias, path string) error {
	return db.repo.Replace(&metadata.CSVSource{AliasName: alias, Path: path})
}

// ReplaceJSON overwrites (or creates) the alias with a JSON file.
func (db *DB) ReplaceJSON(alias, path string) error {
	return db.repo.Replace(&metadata.JSONSource{AliasName: alias, Path: path})
}

// ReplaceXML overwrites (or creates) the alias with an XML file.
func (db *DB) ReplaceXML(alias, path, recordTag string) error {
	return db.repo.Replace(&metadata.XMLSource{AliasName: alias, Path: path, RecordTag: recordTag})
}

// InvalidateSource drops the alias's cached relational form and bumps
// its generation, so the next query re-loads the underlying file.
func (db *DB) InvalidateSource(alias string) { db.repo.Invalidate(alias) }

// Sources lists the registered aliases, sorted.
func (db *DB) Sources() []string { return db.repo.Aliases() }

// SourceGeneration returns the data-version counter of a registered
// alias: 1 after first registration, bumped by Replace*/
// InvalidateSource, 0 for unknown aliases.
func (db *DB) SourceGeneration(alias string) uint64 { return db.repo.Generation(alias) }

// SourceFingerprint returns the content fingerprint of the alias's
// relational form (loading it if needed) — the identity under which
// the artifact cache keys this source's work.
func (db *DB) SourceFingerprint(alias string) (string, error) { return db.repo.Fingerprint(alias) }

// Table loads (and caches) the relational form of a registered source.
func (db *DB) Table(alias string) (*Relation, error) { return db.repo.Get(alias) }

// RegisterResolution adds a custom conflict-resolution function; the
// name becomes usable in RESOLVE clauses (HumMer is extensible,
// paper §2.4).
func (db *DB) RegisterResolution(name string, f ResolutionFunc) {
	db.registry.Register(name, f)
}

// ResolutionFunctions lists the registered resolution-function names.
func (db *DB) ResolutionFunctions() []string { return db.registry.Names() }

// Query parses and executes a SELECT or FUSE BY statement. Safe for
// concurrent use: each call runs over a snapshot of the configuration
// and shares pipeline artifacts through the cache. It is QueryContext
// with a background context: it cannot be cancelled (though a
// WithTimeout option still bounds it).
func (db *DB) Query(sql string, opts ...QueryOption) (*Result, error) {
	return db.QueryContext(context.Background(), sql, opts...)
}

// QueryContext parses and executes a SELECT or FUSE BY statement,
// honoring ctx through every pipeline phase: schema matching,
// duplicate detection and their sharded inner loops check it
// cooperatively, so a cancelled or timed-out query returns promptly
// with ctx's error, leaks no goroutines, and leaves the DB fully
// usable — the next identical query recomputes (or hits the cache)
// and returns the byte-identical result. A query whose singleflight
// leader is cancelled does not poison concurrent identical queries:
// they re-elect a leader and continue.
//
// Options tune this one query: WithTrace/WithoutTrace and
// WithLineage control how much of the pipeline the Result retains,
// WithDetectConfig/WithMatchConfig override the DB-wide phase
// configuration, and WithTimeout layers a per-statement deadline over
// ctx. With zero options the call behaves exactly as it always has;
// note that a Result served warm from the fused cache tier is slim —
// its Pipeline is nil unless WithTrace was requested (Summary carries
// the pipeline's numbers either way).
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	cfg := resolveOptions(opts)
	db.queries.Add(1)
	res, err := db.newExecutor(&cfg).QueryWith(ctx, sql, cfg.exec())
	if err != nil {
		db.queryErrors.Add(1)
		return nil, err
	}
	if res.Summary != nil {
		db.fuseQueries.Add(1)
	}
	return res, nil
}

// QueryRows parses a statement like QueryContext but returns a
// streaming cursor instead of a materialized Result. It returns before
// executing: the statement runs on the goroutine that first calls
// Rows.Columns, Schema or Next, and each Next pulls one row. Plain
// SELECTs stream rows out of the scan as it advances (cancelling ctx
// stops it mid-scan); fusion statements stream the fused table once
// the pipeline has run — warm queries straight from the slim
// fused-cache entry. Draining the cursor yields exactly the rows of
// the equivalent QueryContext call, in the same order.
//
// The caller must Close the cursor (Rows.All does so automatically).
// Parse errors return synchronously; execution errors surface through
// Rows.Columns, Next and Err.
func (db *DB) QueryRows(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	cfg := resolveOptions(opts)
	db.queries.Add(1)
	exec := cfg.exec()
	// A stream's outcome is only known when it ends, so the
	// fusion/error counters hook the finish callback: Stats stays
	// honest whether a statement was materialized or streamed. A
	// deliberate early Close reports a nil error (not a failure).
	exec.OnFinish = func(summary *core.Summary, err error) {
		if err != nil {
			db.queryErrors.Add(1)
		}
		if summary != nil {
			db.fuseQueries.Add(1)
		}
	}
	rows, err := db.newExecutor(&cfg).StreamContext(ctx, sql, exec)
	if err != nil {
		db.queryErrors.Add(1)
		return nil, err
	}
	return rows, nil
}

// BatchResult is one statement's outcome within a QueryBatch call.
type BatchResult struct {
	// SQL is the statement this result belongs to, verbatim.
	SQL string
	// Result is the statement's result; nil when Err is set.
	Result *Result
	// Err is the statement's error: a parse/execution failure, this
	// statement's elapsed WithTimeout deadline, or the batch context's
	// cancellation. Each statement fails independently — a failed
	// statement never prevents the ones after it from running (only
	// cancelling the batch's ctx does).
	Err error
	// Elapsed is the statement's wall-clock execution time.
	Elapsed time.Duration
}

// QueryBatch executes several statements over one configuration
// snapshot, returning a result (or error) per statement, in statement
// order. Statements run concurrently, bounded by the unified
// parallelism knob (SetParallelism; 0 = GOMAXPROCS, 1 = strictly
// sequential, the historical behaviour). Concurrency is invisible in
// the results: each statement is independent, and statements sharing
// pipeline artifacts or source subtrees share one computation through
// the cache's singleflight instead of racing — a batch over
// overlapping sources does one match/detect/scan pass, not N.
// Options apply to every statement; WithTimeout becomes a
// *per-statement* deadline over the PR-4 context substrate — a slow
// statement is cancelled mid-pipeline without eating the budget of
// the statements after it. Cancelling ctx aborts the statements not
// yet started: they report ctx's error.
func (db *DB) QueryBatch(ctx context.Context, stmts []string, opts ...QueryOption) []BatchResult {
	cfg := resolveOptions(opts)
	ex := db.newExecutor(&cfg)
	out := make([]BatchResult, len(stmts))
	run := func(i int) {
		q := stmts[i]
		out[i].SQL = q
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			db.queries.Add(1)
			db.queryErrors.Add(1)
			return
		}
		start := time.Now()
		res, err := ex.QueryWith(ctx, q, cfg.exec())
		out[i].Elapsed = time.Since(start)
		db.queries.Add(1)
		if err != nil {
			out[i].Err = err
			db.queryErrors.Add(1)
			return
		}
		out[i].Result = res
		if res.Summary != nil {
			db.fuseQueries.Add(1)
		}
	}
	db.mu.RLock()
	workers := parshard.Workers(db.parallelism)
	db.mu.RUnlock()
	if workers > len(stmts) {
		workers = len(stmts)
	}
	if workers <= 1 {
		for i := range stmts {
			run(i)
		}
		return out
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range stmts {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Containment boundary: a panicking statement becomes its
			// own BatchResult error, never a dead process (the
			// sequential path below panics on the caller's goroutine,
			// where the caller's own recovery applies).
			defer func() {
				if r := recover(); r != nil {
					out[i].Err = fault.NewInternal("hummer.batch", r)
					db.queryErrors.Add(1)
				}
			}()
			run(i)
		}(i)
	}
	wg.Wait()
	return out
}

// SetDetectConfig installs the default duplicate-detection
// configuration used by Query's fusion statements — the API and CLI
// knob for the candidate strategy (Window / Blocking) and
// Parallelism. Fuse calls pass their own PipelineOptions.Detect
// instead. In-flight queries keep the configuration they started
// with.
func (db *DB) SetDetectConfig(cfg DetectionConfig) {
	db.mu.Lock()
	db.detect = cfg
	db.mu.Unlock()
}

// SetMatchConfig installs the default DUMAS schema-matching
// configuration used by Query's fusion statements — the API and CLI
// knob for the duplicate budget (MaxDuplicates), the candidate
// strategy (Window) and Parallelism. Fuse calls pass their
// own PipelineOptions.Match instead. In-flight queries keep the
// configuration they started with.
func (db *DB) SetMatchConfig(cfg MatchConfig) {
	db.mu.Lock()
	db.match = cfg
	db.mu.Unlock()
}

// SetParallelism installs the unified parallelism knob: the number of
// concurrently executing statements in a QueryBatch and the default
// Parallelism for the match and detect phases when their configs leave
// it 0 (SetDetectConfig/SetMatchConfig and per-query overrides still
// win). Joins always probe sequentially. 0 means GOMAXPROCS; 1 forces
// fully sequential execution. Results are byte-identical at every
// setting — parallelism only changes wall-clock time. In-flight
// queries keep the value they started with.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	db.parallelism = n
	db.mu.Unlock()
}

// DetectDuplicates runs the duplicate-detection phase alone over a
// relation — clusters, scored pairs and statistics without the full
// fusion pipeline. It is DetectDuplicatesContext with a background
// context: it cannot be cancelled.
func DetectDuplicates(rel *Relation, cfg DetectionConfig) (*Detection, error) {
	return DetectDuplicatesContext(context.Background(), rel, cfg)
}

// DetectDuplicatesContext is DetectDuplicates honoring ctx: a
// cancelled detection returns promptly with ctx's error, all worker
// goroutines joined and no partial result.
func DetectDuplicatesContext(ctx context.Context, rel *Relation, cfg DetectionConfig) (*Detection, error) {
	return dupdetect.DetectContext(ctx, rel, cfg)
}

// MatchSchemas runs DUMAS instance-based schema matching alone over
// two relations — attribute correspondences, the duplicate tuple pairs
// they rest on, and the averaged field-similarity matrix, without the
// full fusion pipeline. It is MatchSchemasContext with a background
// context: it cannot be cancelled.
func MatchSchemas(left, right *Relation, cfg MatchConfig) (*MatchResult, error) {
	return MatchSchemasContext(context.Background(), left, right, cfg)
}

// MatchSchemasContext is MatchSchemas honoring ctx: a cancelled match
// returns promptly with ctx's error, all worker goroutines joined and
// no partial result.
func MatchSchemasContext(ctx context.Context, left, right *Relation, cfg MatchConfig) (*MatchResult, error) {
	return dumas.MatchContext(ctx, left, right, cfg)
}

// Fuse runs the three-phase pipeline programmatically over the
// registered aliases — the API equivalent of the demo's wizard mode.
// It is FuseContext with a background context: it cannot be cancelled.
func (db *DB) Fuse(aliases []string, opts PipelineOptions) (*PipelineResult, error) {
	return db.FuseContext(context.Background(), aliases, opts)
}

// FuseContext is Fuse honoring ctx through every pipeline phase.
func (db *DB) FuseContext(ctx context.Context, aliases []string, opts PipelineOptions) (*PipelineResult, error) {
	return db.newPipeline().RunContext(ctx, aliases, opts)
}

// OnCorrespondences installs the wizard step-2 hook: inspect and
// adjust the attribute correspondences DUMAS proposes for each source
// before they are applied. Pass nil to restore automatic behaviour.
func (db *DB) OnCorrespondences(h func(sourceAlias string, proposed []Correspondence) []Correspondence) {
	db.mu.Lock()
	db.onCorrespondences = h
	db.mu.Unlock()
}

// OnAttributes installs the wizard step-3 hook: adjust the attributes
// duplicate detection compares.
func (db *DB) OnAttributes(h func(proposed []string) []string) {
	db.mu.Lock()
	db.onAttributes = h
	db.mu.Unlock()
}

// OnDuplicates installs the wizard step-4 hook: inspect the detected
// duplicate clustering and optionally return replacement object ids.
// The Detection may be a cached artifact shared across queries; treat
// it as read-only and adjust by returning ids.
func (db *DB) OnDuplicates(h func(det *Detection, merged *Relation) []int) {
	db.mu.Lock()
	db.onDuplicates = h
	db.mu.Unlock()
}

// --- Stats and cache control ------------------------------------------------

// SourceStatus describes one registered source in a Stats snapshot.
type SourceStatus struct {
	// Alias is the registered name.
	Alias string `json:"alias"`
	// Generation counts data versions: 1 after first registration,
	// bumped by Replace*/InvalidateSource.
	Generation uint64 `json:"generation"`
}

// Stats is a point-in-time snapshot of a DB: query counters, the
// registered sources with their generations, and the artifact-cache
// traffic. hummerd's /v1/stats endpoint serves this.
type Stats struct {
	// Queries counts Query calls; FuseQueries the subset that ran the
	// fusion pipeline; QueryErrors the calls that failed.
	Queries     uint64 `json:"queries"`
	FuseQueries uint64 `json:"fuse_queries"`
	QueryErrors uint64 `json:"query_errors"`
	// Sources lists the registered aliases with generations, sorted
	// by alias.
	Sources []SourceStatus `json:"sources"`
	// Cache reports artifact-cache entries and per-kind hit/miss/
	// singleflight-share/eviction counters. The zero value when the
	// cache is disabled.
	Cache CacheStats `json:"cache"`
	// CSEShared / CSEUnique count plain-SQL source subtrees resolved
	// through the planner's cross-statement CSE tier: Shared are
	// resolutions served from (or piggybacked on) another statement's
	// materialization, Unique are the ones that had to materialize.
	// Derived from the cache's cse kind; zero when the cache is
	// disabled.
	CSEShared uint64 `json:"cse_shared"`
	CSEUnique uint64 `json:"cse_unique"`
}

// Stats snapshots the DB's counters. It is cheap: no sources are
// loaded.
func (db *DB) Stats() Stats {
	st := Stats{
		Queries:     db.queries.Load(),
		FuseQueries: db.fuseQueries.Load(),
		QueryErrors: db.queryErrors.Load(),
	}
	for _, alias := range db.repo.Aliases() {
		st.Sources = append(st.Sources, SourceStatus{Alias: alias, Generation: db.repo.Generation(alias)})
	}
	if db.cache != nil {
		st.Cache = db.cache.Stats()
		if ks, ok := st.Cache.Kinds[qcache.KindCSE]; ok {
			st.CSEShared = ks.Hits + ks.Shared
			st.CSEUnique = ks.Misses
		}
	}
	return st
}

// PurgeCache drops every completed artifact from the cache and
// returns how many were dropped (0 when the cache is disabled).
// Purging is an operator convenience, not a correctness requirement:
// stale artifacts already stop being addressed when their inputs
// change, because keys are content fingerprints.
func (db *DB) PurgeCache() int {
	if db.cache == nil {
		return 0
	}
	return db.cache.Purge()
}

// NewTable starts a fluent builder for an in-memory relation:
//
//	t := hummer.NewTable("people", "Name", "Age").
//	    AddText("Alice", "30").
//	    Build()
func NewTable(name string, cols ...string) *TableBuilder {
	return relation.NewBuilder(name, cols...)
}

// TableBuilder builds relations row by row.
type TableBuilder = relation.Builder
