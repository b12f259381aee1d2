// Package qcache implements the versioned artifact cache behind
// hummerd's query serving: the expensive intermediates of the FUSE BY
// pipeline — DUMAS match results, duplicate-detection clusterings and
// parsed query plans — are keyed by content fingerprints so that
// repeated and overlapping queries skip recomputation entirely.
//
// # Keying and versioning
//
// Every artifact is addressed by a Key: a Kind (what phase produced
// it) plus a fingerprint string derived from the *content* of its
// inputs — the fingerprints of the participating relations and of the
// phase configuration. Versioning is therefore structural: when a
// source is replaced or its file re-loaded with different rows, its
// relation fingerprint changes, every key derived from it changes, and
// the stale entries simply stop being addressed (and age out of the
// LRU). No invalidation protocol is needed for correctness; Purge
// exists as an operator convenience.
//
// # Singleflight
//
// Concurrent lookups of the same key are deduplicated: the first
// caller computes, the rest block until the value is ready and share
// it (a thundering herd of identical queries computes each artifact
// once). Failed computations are not cached — the next caller retries.
//
// # Cancellation
//
// DoContext makes the singleflight cancellation-safe. A waiter whose
// context is cancelled stops waiting and returns its context error;
// the in-flight computation is unaffected. A *leader* whose context is
// cancelled mid-compute must not poison the waiters piggybacking on
// it: the abandoned entry is dropped and the waiters re-elect — the
// first waiter with a live context becomes the new leader and
// recomputes. Only genuine compute errors propagate to waiters.
//
// # Fault containment
//
// A leader whose compute panics can never poison the cache: the panic
// is recovered at the leader boundary, the entry is failed, marked
// abandoned (waiters re-elect exactly like the cancelled-leader path)
// and dropped, and the leader's call returns a *fault.InternalError.
// The panic degrades one lookup; the key stays computable and the
// process survives.
//
// Cached values are shared across goroutines and must be treated as
// immutable by all consumers.
package qcache

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"

	"hummer/internal/fault"
	"hummer/internal/faultinject"
	"hummer/internal/relation"
)

// Kind labels what pipeline phase an artifact came from. Stats are
// reported per kind.
type Kind string

// The artifact kinds the pipeline caches.
const (
	// KindPlan is a parsed query plan, keyed by the statement text.
	KindPlan Kind = "plan"
	// KindMatch is a DUMAS schema-matching result, keyed by the two
	// relation fingerprints and the match configuration.
	KindMatch Kind = "match"
	// KindDetect is a duplicate-detection result, keyed by the merged
	// relation's fingerprint and the detection configuration.
	KindDetect Kind = "detect"
	// KindFused is a fused query result in slim form — the final
	// table, its lineage and the precomputed pipeline summary, no
	// intermediates (trace queries bypass this tier) — keyed by the
	// raw statement text, the source fingerprints in query order, and
	// the configuration fingerprint (match + detect knobs and the
	// resolution-registry version). A hit on this tier skips matching,
	// detection, merging and fusion entirely.
	KindFused Kind = "fused"
	// KindCSE is a materialized plain-SQL source subtree (the scans,
	// crosses, joins and WHERE filter below the projection) shared
	// across statements whose plans contain the same subtree — the
	// planner's cross-statement common-subexpression tier. Keyed by
	// the subtree fingerprint: the sources' content fingerprints
	// (child fingerprints), the operator shape (join columns,
	// predicate rendering) and a key-schema version tag. A hit serves
	// the already-materialized intermediate; concurrent statements
	// containing the same subtree share one scan/join/filter pass
	// through the singleflight.
	KindCSE Kind = "cse"
)

// Key addresses one artifact.
type Key struct {
	Kind        Kind
	Fingerprint string
}

// DefaultCapacity is the per-kind entry cap of a zero-configured
// cache: small enough to bound memory on an artifact-heavy workload,
// large enough that a realistic working set of queries stays
// resident. Each artifact kind owns its own budget, so cheap plans
// never evict expensive match/detect results.
const DefaultCapacity = 256

// KindStats counts one kind's cache traffic.
type KindStats struct {
	// Hits are lookups served from a completed entry.
	Hits uint64 `json:"hits"`
	// Misses are lookups that had to compute the artifact.
	Misses uint64 `json:"misses"`
	// Shared are lookups that piggybacked on an in-flight computation
	// (singleflight): they neither hit nor computed.
	Shared uint64 `json:"shared"`
	// Evictions are completed entries dropped to respect the cap.
	Evictions uint64 `json:"evictions"`
}

// Stats is a point-in-time snapshot of the cache.
type Stats struct {
	// Entries is the number of resident artifacts.
	Entries int `json:"entries"`
	// Capacity is the per-kind entry cap. Every kind — including
	// fused results, which are slim since trace became opt-in (final
	// table + lineage + summary, no pipeline intermediates) — runs on
	// the full budget.
	Capacity int `json:"capacity"`
	// Waiters is the number of callers currently blocked on in-flight
	// computations (a gauge, unlike the per-kind counters).
	Waiters int `json:"waiters"`
	// Kinds maps each artifact kind to its traffic counters. Every
	// counter is monotonic: a DoContext call contributes exactly one
	// increment — Hits, Misses or Shared — when it resolves.
	Kinds map[Kind]KindStats `json:"kinds"`
}

// HitRate returns the fraction of lookups served without computing
// (hits + shared over all lookups), 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	var served, total uint64
	for _, ks := range s.Kinds {
		served += ks.Hits + ks.Shared
		total += ks.Hits + ks.Shared + ks.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// entry is one cache slot. ready is closed when val/err are final;
// until then the entry is "in flight" and exempt from eviction.
type entry struct {
	key   Key
	ready chan struct{}
	val   any
	err   error
	// abandoned marks an entry whose leader's context was cancelled
	// mid-compute: the failure says nothing about the artifact, so
	// waiters with live contexts re-elect instead of inheriting the
	// leader's cancellation error.
	abandoned bool
	// seq is the last-touch tick for LRU eviction.
	seq uint64
}

// Cache is the versioned artifact cache. The zero value is not usable;
// call New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64
	waiters int
	entries map[Key]*entry
	stats   map[Kind]*KindStats
}

// New returns an empty cache holding at most capacity completed
// entries per artifact kind (DefaultCapacity when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[Key]*entry),
		stats:   make(map[Kind]*KindStats),
	}
}

// DoContext returns the artifact for key, computing it with compute on
// a miss. Concurrent calls for the same key run compute exactly once;
// the other callers block and share the outcome. hit reports whether
// this call avoided computing (a completed entry or a shared in-flight
// one). Errors are returned to every waiting caller but are not
// cached: the entry is removed so a later call retries.
//
// Cancellation: a waiter whose ctx is cancelled returns ctx's error
// immediately, leaving the in-flight computation undisturbed. A leader
// whose own ctx is cancelled mid-compute abandons the entry; waiters
// with live contexts then re-elect a new leader and recompute rather
// than inheriting a cancellation that was never theirs.
func (c *Cache) DoContext(ctx context.Context, key Key, compute func(ctx context.Context) (any, error)) (val any, hit bool, err error) {
	// Stats discipline: every counter is monotonic (the server exports
	// them as Prometheus counters), and a call contributes exactly one
	// increment — at resolution, not at attach. A waiter that re-elects
	// after an abandoned leader therefore counts only as the miss (or
	// hit) it finally resolves to; a waiter that gives up on its own
	// ctx still counts as Shared (it piggybacked, computed nothing).
	// The transient "blocked on an in-flight entry" state is the
	// Waiters gauge instead.
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		ks := c.kindStatsLocked(key.Kind)
		if e, ok := c.entries[key]; ok {
			c.tick++
			e.seq = c.tick
			select {
			case <-e.ready:
				if e.err != nil {
					// A failed entry awaiting cleanup (the leader drops
					// it right after closing ready): treat it as absent
					// and take leadership instead of replaying a stale
					// failure.
					if cur, live := c.entries[key]; live && cur == e {
						delete(c.entries, key)
					}
					c.mu.Unlock()
					continue
				}
				ks.Hits++
				c.mu.Unlock()
				return e.val, true, nil
			default:
				c.waiters++
				c.mu.Unlock()
				var ctxErr error
				select {
				case <-e.ready:
				case <-ctx.Done():
					ctxErr = ctx.Err()
				}
				c.mu.Lock()
				c.waiters--
				// Only read e.abandoned when ready's close ordered the
				// leader's write before us (ctxErr == nil guarantees we
				// woke via <-e.ready); short-circuit keeps the racy
				// read from ever happening on the cancelled path.
				abandoned := ctxErr == nil && e.abandoned
				if !abandoned {
					ks.Shared++
				}
				c.mu.Unlock()
				if ctxErr != nil {
					return nil, false, ctxErr
				}
				if abandoned {
					continue // leader cancelled: re-elect
				}
				return e.val, true, e.err
			}
		}
		ks.Misses++
		c.tick++
		e := &entry{key: key, ready: make(chan struct{}), seq: c.tick}
		c.entries[key] = e
		c.mu.Unlock()
		return c.lead(ctx, key, e, compute)
	}
}

// lead runs compute as the entry's leader and publishes the outcome.
func (c *Cache) lead(ctx context.Context, key Key, e *entry, compute func(ctx context.Context) (any, error)) (val any, hit bool, err error) {
	// A compute that panics (e.g. a parser bug on hostile input) must
	// not wedge the key: waiters would block on ready forever and the
	// in-flight entry is exempt from eviction and Purge. The panic is
	// contained right here — the entry is failed, marked abandoned
	// (waiters re-elect exactly as after a cancelled leader) and
	// dropped so nothing is ever cached from a panicked compute, and
	// the leader's own call returns a *fault.InternalError instead of
	// crashing the process.
	published := false
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ie := fault.NewInternal(faultinject.SiteQCacheLeader, r)
		if !published {
			e.err = ie
			e.abandoned = true
			close(e.ready)
		}
		c.dropFailedEntry(key, e)
		val, hit, err = nil, false, ie
	}()
	if injErr := faultinject.Hit(faultinject.SiteQCacheLeader); injErr != nil {
		e.err = injErr
	} else {
		e.val, e.err = compute(ctx)
	}
	if e.err != nil && ctx.Err() != nil &&
		(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// The leader was cancelled, not the computation refuted:
		// waiters must re-elect, not inherit the cancellation. Both
		// conditions matter — a genuine, deterministic error that
		// merely races the leader's cancellation must propagate to
		// waiters instead of making each of them redundantly recompute
		// the same failure.
		e.abandoned = true
	}
	close(e.ready)
	published = true

	c.mu.Lock()
	if e.err != nil {
		c.mu.Unlock()
		c.dropFailedEntry(key, e)
	} else {
		c.evictLocked(key.Kind)
		c.mu.Unlock()
	}
	return e.val, false, e.err
}

// dropFailedEntry removes e so a later call retries — but only e
// itself: a Purge + recompute may have installed a fresh entry under
// the same key.
func (c *Cache) dropFailedEntry(key Key, e *entry) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == e {
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Get returns the completed artifact for key without computing.
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		select {
		case <-e.ready:
		default:
			ok = false // in flight: not observable yet
		}
	}
	if ok && e.err != nil {
		ok = false
	}
	if ok {
		c.tick++
		e.seq = c.tick
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.val, true
}

// evictLocked drops least-recently-used completed entries of the
// just-inserted kind until that kind fits its cap. Eviction is
// per-kind so a flood of cheap artifacts (256 distinct statements
// parse in microseconds) can never evict the expensive ones (a DUMAS
// match costs seconds) — each kind owns its own budget. In-flight
// entries are never evicted (their callers hold references).
func (c *Cache) evictLocked(kind Kind) {
	cap := c.cap
	for {
		count := 0
		var victim *entry
		for _, e := range c.entries {
			if e.key.Kind != kind {
				continue
			}
			count++
			select {
			case <-e.ready:
			default:
				continue // in flight
			}
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		if count <= cap || victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.kindStatsLocked(victim.key.Kind).Evictions++
	}
}

// Purge drops every completed entry and returns how many were
// dropped. In-flight computations are left to finish and insert
// themselves.
func (c *Cache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		select {
		case <-e.ready:
			delete(c.entries, k)
			n++
		default:
		}
	}
	return n
}

// Len returns the number of resident entries (including in-flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{
		Entries:  len(c.entries),
		Capacity: c.cap,
		Waiters:  c.waiters,
		Kinds:    make(map[Kind]KindStats, len(c.stats)),
	}
	for k, ks := range c.stats {
		out.Kinds[k] = *ks
	}
	return out
}

func (c *Cache) kindStatsLocked(k Kind) *KindStats {
	ks, ok := c.stats[k]
	if !ok {
		ks = &KindStats{}
		c.stats[k] = ks
	}
	return ks
}

// --- Fingerprints ---------------------------------------------------------

// FingerprintRelation hashes a relation's content: name-independent
// schema shape (column names and types, in order) plus every cell's
// kind and length-prefixed text, in order, through SHA-256. Two
// relations with equal schemas and equal rows in equal order
// fingerprint identically; any cell change, row reorder, or schema
// change produces a different fingerprint. The hash runs over the
// actual cell content — not over composed 64-bit value hashes — and
// is cryptographic, because clients of a serving DB control cell
// values: a forgeable fingerprint would let one relation silently
// adopt another's cached match/detect artifacts. Cost stays linear
// and far below the phases the fingerprint lets callers skip.
func FingerprintRelation(rel *relation.Relation) string {
	h := sha256.New()
	s := rel.Schema()
	var buf [8]byte
	writeStr := func(txt string) {
		putUint64(&buf, uint64(len(txt)))
		h.Write(buf[:])
		h.Write([]byte(txt))
	}
	for j := 0; j < s.Len(); j++ {
		col := s.Col(j)
		writeStr(col.Name)
		h.Write([]byte{byte(col.Type)})
	}
	h.Write([]byte{0xff})
	for i := 0; i < rel.Len(); i++ {
		for _, v := range rel.Row(i) {
			if v.IsNull() {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1, byte(v.Kind())})
			writeStr(v.Text())
		}
	}
	return fmt.Sprintf("rel:%x/%dx%d", h.Sum(nil)[:16], rel.Len(), s.Len())
}

// FingerprintConfig renders any flat configuration struct into a
// deterministic fingerprint component via %#v (field names and values
// in declaration order). The rendering is used verbatim — configs are
// short and operator-controlled, so exactness beats hashing.
func FingerprintConfig(cfg any) string {
	return fmt.Sprintf("cfg:%#v", cfg)
}

// MatchKey builds the cache key of a DUMAS match artifact from the
// two relation fingerprints and the match configuration.
func MatchKey(leftFP, rightFP string, cfg any) Key {
	return Key{Kind: KindMatch, Fingerprint: leftFP + "|" + rightFP + "|" + FingerprintConfig(cfg)}
}

// DetectKey builds the cache key of a duplicate-detection artifact
// from the input relation's fingerprint and the detection
// configuration.
func DetectKey(relFP string, cfg any) Key {
	return Key{Kind: KindDetect, Fingerprint: relFP + "|" + FingerprintConfig(cfg)}
}

// PlanKey builds the cache key of a parsed statement. The statement
// text itself is the fingerprint: it is short, already in hand, and —
// unlike a hash — cannot collide, which matters because hummerd
// accepts arbitrary statements from clients.
func PlanKey(query string) Key {
	return Key{Kind: KindPlan, Fingerprint: query}
}

// FusedKey builds the cache key of a complete fused query result. The
// plan fingerprint is the raw statement text — collision-free for the
// same reason PlanKey's is: hummerd accepts arbitrary statements, and
// any lossy rendering risks two statements sharing an entry. The
// source fingerprints cover the participating relations in query
// order, and the config fingerprint covers every knob that can change
// the output (match + detect configuration and the resolution-
// registry version). Each component is length-prefixed so no
// concatenation of one key's parts can collide with another's.
func FusedKey(planFP string, sourceFPs []string, cfgFP string) Key {
	var b strings.Builder
	writePart := func(p string) {
		fmt.Fprintf(&b, "%d:%s|", len(p), p)
	}
	writePart(planFP)
	for _, fp := range sourceFPs {
		writePart(fp)
	}
	writePart(cfgFP)
	return Key{Kind: KindFused, Fingerprint: b.String()}
}

// CSEKey builds the cache key of a materialized plain-SQL source
// subtree from its rendered shape parts, bottom-up: scan parts carry
// the sources' content fingerprints, join parts their build-side
// fingerprint and column pair, the where part the predicate
// rendering. Each part is length-prefixed, like FusedKey's, so no
// concatenation of one subtree's parts can collide with another's.
func CSEKey(parts ...string) Key {
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "%d:%s|", len(p), p)
	}
	return Key{Kind: KindCSE, Fingerprint: b.String()}
}

func putUint64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}
