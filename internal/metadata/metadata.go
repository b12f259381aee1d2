// Package metadata implements HumMer's metadata repository: it stores
// all registered data sources under an alias together with the
// instructions needed to transform each source into its relational
// form (paper §3). Sources can be in-memory relations, CSV files,
// JSON files, or XML files.
package metadata

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hummer/internal/qcache"
	"hummer/internal/relation"
)

// ErrAliasConflict is wrapped by Register when an alias is
// re-registered with different data; match it with errors.Is.
var ErrAliasConflict = errors.New("already registered with different data")

// Source is one registered data source: an alias plus a loader that
// produces the relational form.
type Source interface {
	// Alias is the repository key the source is registered under.
	Alias() string
	// Load transforms the source into a relation. Loaders are called
	// lazily and may be called more than once.
	Load() (*relation.Relation, error)
}

// Repository maps aliases to sources and caches loaded relations. It
// is safe for concurrent use.
//
// Every alias carries a generation counter: it starts at 1 on first
// registration and is bumped whenever the alias's data may have
// changed (Replace, Invalidate). Artifact caches key their entries by
// content fingerprints, so the generation is the cheap signal that a
// fingerprint must be recomputed.
type Repository struct {
	mu      sync.Mutex
	sources map[string]Source
	cache   map[string]*relation.Relation
	// generations[key] counts data versions of the alias.
	generations map[string]uint64
	// fingerprints caches the content fingerprint per alias; cleared
	// with the relation cache.
	fingerprints map[string]string
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		sources:      make(map[string]Source),
		cache:        make(map[string]*relation.Relation),
		generations:  make(map[string]uint64),
		fingerprints: make(map[string]string),
	}
}

// Register adds a source. Aliases are case-insensitive and must be
// unique. Re-registering an alias with a source describing the same
// data (same file, or an equal in-memory relation) is an idempotent
// no-op; re-registering it with *different* data is an error — a
// silent overwrite would invisibly change the results of every query
// touching the alias. Use Replace to overwrite deliberately.
func (r *Repository) Register(s Source) error {
	key := strings.ToLower(s.Alias())
	if key == "" {
		return fmt.Errorf("metadata: empty alias")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, dup := r.sources[key]; dup {
		if sameSource(old, s) {
			return nil // idempotent: identical data
		}
		return fmt.Errorf("metadata: alias %q: %w; use Replace to overwrite",
			s.Alias(), ErrAliasConflict)
	}
	r.sources[key] = s
	r.generations[key] = 1
	return nil
}

// Replace registers s under its alias, overwriting any existing
// source, dropping the cached relation and bumping the alias's
// generation.
func (r *Repository) Replace(s Source) error {
	key := strings.ToLower(s.Alias())
	if key == "" {
		return fmt.Errorf("metadata: empty alias")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[key] = s
	delete(r.cache, key)
	delete(r.fingerprints, key)
	r.generations[key]++
	return nil
}

// sameSource reports whether two sources describe the same data: file
// sources by their load instructions, in-memory relations by content.
func sameSource(a, b Source) bool {
	switch x := a.(type) {
	case *CSVSource:
		y, ok := b.(*CSVSource)
		return ok && x.Path == y.Path && x.Comma == y.Comma
	case *JSONSource:
		y, ok := b.(*JSONSource)
		return ok && x.Path == y.Path
	case *XMLSource:
		y, ok := b.(*XMLSource)
		return ok && x.Path == y.Path && x.RecordTag == y.RecordTag
	case *relationSource:
		y, ok := b.(*relationSource)
		return ok && sameRelation(x.rel, y.rel)
	default:
		return false
	}
}

// sameRelation compares two in-memory relations by content.
func sameRelation(a, b *relation.Relation) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Len() != b.Len() || !a.Schema().Equal(b.Schema()) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			return false
		}
	}
	return true
}

// RegisterRelation registers an in-memory relation under alias.
func (r *Repository) RegisterRelation(alias string, rel *relation.Relation) error {
	return r.Register(&relationSource{alias: alias, rel: rel})
}

// RegisterCSV registers a CSV file (first row = header).
func (r *Repository) RegisterCSV(alias, path string) error {
	return r.Register(&CSVSource{AliasName: alias, Path: path})
}

// RegisterJSON registers a JSON file holding an array of flat objects.
func (r *Repository) RegisterJSON(alias, path string) error {
	return r.Register(&JSONSource{AliasName: alias, Path: path})
}

// RegisterXML registers an XML file whose repeated recordTag elements
// are the tuples.
func (r *Repository) RegisterXML(alias, path, recordTag string) error {
	return r.Register(&XMLSource{AliasName: alias, Path: path, RecordTag: recordTag})
}

// Get loads (and caches) the relational form of the aliased source.
// The returned relation is named after the alias as registered.
func (r *Repository) Get(alias string) (*relation.Relation, error) {
	key := strings.ToLower(alias)
	r.mu.Lock()
	src, ok := r.sources[key]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("metadata: unknown source alias %q (registered: %s)",
			alias, strings.Join(r.aliasesLocked(), ", "))
	}
	if rel, hit := r.cache[key]; hit {
		r.mu.Unlock()
		return rel, nil
	}
	gen := r.generations[key]
	r.mu.Unlock()

	rel, err := src.Load()
	if err != nil {
		return nil, fmt.Errorf("metadata: loading %q: %w", alias, err)
	}

	r.mu.Lock()
	// A relation source hands every Load the same relation, so
	// concurrent first Gets share it: rename under the lock, and only
	// when the name differs, so no write races a reader.
	if rel.Name() != src.Alias() {
		rel.SetName(src.Alias())
	}
	// Install only if the alias was not replaced or invalidated while
	// we loaded: a concurrent Replace bumped the generation, and
	// caching our now-stale rows under the new generation would serve
	// old data forever.
	if r.generations[key] == gen {
		r.cache[key] = rel
	}
	r.mu.Unlock()
	return rel, nil
}

// Invalidate drops the cached relation for alias (e.g. after the
// underlying file changed) and bumps its generation: the next Get
// re-loads, and fingerprint-keyed artifact caches stop matching if
// the data actually changed.
func (r *Repository) Invalidate(alias string) {
	key := strings.ToLower(alias)
	r.mu.Lock()
	delete(r.cache, key)
	delete(r.fingerprints, key)
	if _, ok := r.sources[key]; ok {
		r.generations[key]++
	}
	r.mu.Unlock()
}

// Generation returns the data-version counter of alias (0 when the
// alias is unknown).
func (r *Repository) Generation(alias string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generations[strings.ToLower(alias)]
}

// Fingerprint returns the content fingerprint of the aliased source's
// relational form, loading it if necessary. The fingerprint is cached
// until the alias is invalidated or replaced.
func (r *Repository) Fingerprint(alias string) (string, error) {
	key := strings.ToLower(alias)
	r.mu.Lock()
	if fp, ok := r.fingerprints[key]; ok {
		r.mu.Unlock()
		return fp, nil
	}
	gen := r.generations[key]
	r.mu.Unlock()
	rel, err := r.Get(alias)
	if err != nil {
		return "", err
	}
	fp := qcache.FingerprintRelation(rel)
	r.mu.Lock()
	// Same staleness guard as Get: never cache a fingerprint computed
	// from data that a concurrent Replace already superseded.
	if r.generations[key] == gen {
		r.fingerprints[key] = fp
	}
	r.mu.Unlock()
	return fp, nil
}

// Aliases lists the registered aliases, sorted.
func (r *Repository) Aliases() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aliasesLocked()
}

func (r *Repository) aliasesLocked() []string {
	out := make([]string, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s.Alias())
	}
	sort.Strings(out)
	return out
}

// Has reports whether alias is registered.
func (r *Repository) Has(alias string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sources[strings.ToLower(alias)]
	return ok
}

// NewRelationSource wraps an in-memory relation as a Source, for use
// with Register or Replace.
func NewRelationSource(alias string, rel *relation.Relation) Source {
	return &relationSource{alias: alias, rel: rel}
}

type relationSource struct {
	alias string
	rel   *relation.Relation
}

func (s *relationSource) Alias() string { return s.alias }

func (s *relationSource) Load() (*relation.Relation, error) {
	if s.rel == nil {
		return nil, fmt.Errorf("nil relation")
	}
	return s.rel, nil
}
