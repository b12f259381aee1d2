// Package faultinject is hummerd's deterministic fault-injection
// harness: named fault points compiled into the query pipeline that
// are free when disarmed (one atomic load) and, when armed, inject
// panics, errors and delays on a deterministic, seed-driven schedule.
//
// # Fault points
//
// A fault point is a named call site:
//
//	if err := faultinject.Hit(faultinject.SiteQCacheLeader); err != nil {
//	    return err
//	}
//
// Disarmed (the default, and the only production state), Hit returns
// nil after a single atomic load. Armed, each hit increments the
// site's counter and consults the schedule: the decision for hit n of
// site s is a pure function of (plan, s, n), so a run with a fixed
// plan makes the same injection decisions at the same per-site hit
// counts every time — concurrency may interleave *which* goroutine
// draws hit n, but never what hit n does.
//
// # Schedules
//
// A Plan combines explicit per-site Rules (first match wins: fire
// Kind on every Every-th hit after After, at most Times times) with a
// seeded background Rate applied to sites no rule matches: hit n of
// site s fires iff hash(Seed, s, n) falls under Rate, choosing the
// kind from the same hash. Panics carry a *PanicValue; errors are
// *InjectedError (a genuine error, deliberately distinct from context
// cancellation so cache singleflight and error classification treat it
// like any real failure); delays sleep and return nil.
//
// # Arming
//
// Tests arm via Arm/Disarm. Operators arm a whole process via the
// HUMMER_FAULTS environment variable (parsed by ArmFromEnv, called by
// hummerd at startup), e.g.:
//
//	HUMMER_FAULTS="seed=42,rate=0.01;qcache.leader.compute:panic:every=3;server.query:error:every=5:times=2"
//
// Specs are ';'-separated. A spec without a site prefix sets the
// global seeded schedule ("seed=N", "rate=F", "delay=D",
// "kinds=panic+error+delay"); a "site:kind[:every=N][:after=N]
// [:times=N][:delay=D]" spec adds a Rule (site may end in '*' for a
// prefix match, and must match at least one of Sites).
package faultinject

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The registered fault points. Every name here is a live Hit call in
// the pipeline, and the chaos storm asserts that each of them is hit.
const (
	// SiteParshardWorker fires once per contiguous shard of
	// parshard.RangesContext, including the single-shard inline run.
	SiteParshardWorker = "parshard.worker"
	// SiteQCacheLeader fires inside a singleflight leader's compute,
	// with waiters attached — the cache-poisoning hazard zone.
	SiteQCacheLeader = "qcache.leader.compute"
	// SiteCoreMatch and SiteCoreDetect fire at the pipeline's schema-
	// matching and duplicate-detection phase boundaries.
	SiteCoreMatch  = "core.match"
	SiteCoreDetect = "core.detect"
	// SiteEngineMaterialize fires at the engine's row-stride poll while
	// draining an operator tree.
	SiteEngineMaterialize = "engine.materialize"
	// SitePlanQuery fires at the top of every statement execution.
	SitePlanQuery = "plan.query"
	// SitePlanStream fires when a streaming Rows starts executing and
	// then once per 64 rows it delivers (and after a final partial
	// run), on the consumer's goroutine.
	SitePlanStream = "plan.stream.produce"
	// SiteServerQuery, SiteServerStream and SiteServerBatch fire inside
	// the corresponding HTTP handlers, after admission.
	SiteServerQuery  = "server.query"
	SiteServerStream = "server.stream"
	SiteServerBatch  = "server.batch"
)

// Sites lists every registered fault point, sorted — the chaos suite's
// coverage checklist.
func Sites() []string {
	s := []string{
		SiteParshardWorker, SiteQCacheLeader, SiteCoreMatch, SiteCoreDetect,
		SiteEngineMaterialize, SitePlanQuery, SitePlanStream,
		SiteServerQuery, SiteServerStream, SiteServerBatch,
	}
	sort.Strings(s)
	return s
}

// Kind is what an armed fault point does when its schedule fires.
type Kind uint8

const (
	// Error makes Hit return an *InjectedError.
	Error Kind = iota
	// Panic makes Hit panic with a *PanicValue.
	Panic
	// Delay makes Hit sleep for the scheduled duration, then return
	// nil — the latency-chaos kind.
	Delay
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// defaultDelay is the sleep of a Delay fault with no explicit
// duration: long enough to reorder goroutines, short enough that a
// chaos run stays fast.
const defaultDelay = time.Millisecond

// InjectedError is the error an Error-kind fault returns. It is a
// plain, genuine error on purpose: cache singleflight must propagate
// it to waiters (not re-elect, as it would for a cancellation) and the
// server must classify it like any compute failure.
type InjectedError struct {
	// Site is the fault point that fired; Hit is its per-site hit
	// counter value at the time.
	Site string
	Hit  uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s (hit %d)", e.Site, e.Hit)
}

// PanicValue is the value a Panic-kind fault panics with, so recovery
// layers and tests can tell an injected panic from a genuine bug.
type PanicValue struct {
	Site string
	Hit  uint64
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Site, p.Hit)
}

// Rule schedules one kind of fault at one site (or site prefix).
type Rule struct {
	// Site is the fault point the rule matches: an exact name, or a
	// prefix ending in '*' ("parshard.*").
	Site string
	// Kind is what happens when the rule fires.
	Kind Kind
	// Every fires the rule on hits After+1, After+1+Every, … of the
	// site. 0 behaves like 1 (every hit after After).
	Every uint64
	// After skips the site's first After hits.
	After uint64
	// Times caps how often the rule fires (0 = unlimited).
	Times uint64
	// Delay is the sleep duration for Kind == Delay (defaultDelay when
	// zero).
	Delay time.Duration
}

// Plan is a complete injection schedule: explicit rules first, then a
// seeded background rate for every other site.
type Plan struct {
	// Seed drives the background schedule's hash. Two runs with equal
	// plans make identical decisions at identical per-site hit counts.
	Seed uint64
	// Rate is the background firing probability per hit (0 disables
	// the background schedule; rules still apply).
	Rate float64
	// Kinds is the kind set the background schedule draws from
	// (default: Error, Panic, Delay).
	Kinds []Kind
	// Delay is the background schedule's sleep duration (defaultDelay
	// when zero).
	Delay time.Duration
	// Rules are consulted in order; the first site match wins.
	Rules []Rule
}

// state is one armed plan plus its per-site counters.
type state struct {
	plan      Plan
	mu        sync.Mutex
	hits      map[string]uint64
	fired     map[string]uint64
	ruleFired []uint64
}

var current atomic.Pointer[state]

// Armed reports whether fault injection is active.
func Armed() bool { return current.Load() != nil }

// Arm installs the plan, resetting all counters. The plan is copied;
// later mutations of p are invisible.
func Arm(p *Plan) {
	st := &state{
		plan:      *p,
		hits:      make(map[string]uint64),
		fired:     make(map[string]uint64),
		ruleFired: make([]uint64, len(p.Rules)),
	}
	st.plan.Rules = append([]Rule(nil), p.Rules...)
	st.plan.Kinds = append([]Kind(nil), p.Kinds...)
	current.Store(st)
}

// Disarm deactivates fault injection; every Hit is a no-op again.
func Disarm() { current.Store(nil) }

// Hits snapshots the per-site hit counters (nil when disarmed).
func Hits() map[string]uint64 { return snapshot(func(st *state) map[string]uint64 { return st.hits }) }

// Fired snapshots the per-site fire counters (nil when disarmed) —
// how many injections each site actually performed.
func Fired() map[string]uint64 {
	return snapshot(func(st *state) map[string]uint64 { return st.fired })
}

func snapshot(pick func(*state) map[string]uint64) map[string]uint64 {
	st := current.Load()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]uint64, len(pick(st)))
	for k, v := range pick(st) {
		out[k] = v
	}
	return out
}

// Hit marks the named fault point. Disarmed it returns nil after one
// atomic load. Armed it advances the site's hit counter and, when the
// schedule fires, panics (Panic), sleeps (Delay) or returns an
// *InjectedError (Error).
func Hit(site string) error {
	st := current.Load()
	if st == nil {
		return nil
	}
	return st.hit(site)
}

func (st *state) hit(site string) error {
	st.mu.Lock()
	st.hits[site]++
	n := st.hits[site]
	kind, delay, fire := st.decideLocked(site, n)
	if fire {
		st.fired[site]++
	}
	st.mu.Unlock()
	if !fire {
		return nil
	}
	switch kind {
	case Panic:
		panic(&PanicValue{Site: site, Hit: n})
	case Delay:
		time.Sleep(delay)
		return nil
	default:
		return &InjectedError{Site: site, Hit: n}
	}
}

// decideLocked is the pure scheduling function: what does hit n of
// site do under the armed plan?
func (st *state) decideLocked(site string, n uint64) (Kind, time.Duration, bool) {
	for i := range st.plan.Rules {
		r := &st.plan.Rules[i]
		if !matchSite(r.Site, site) {
			continue
		}
		if n <= r.After {
			return 0, 0, false
		}
		every := r.Every
		if every == 0 {
			every = 1
		}
		if (n-r.After-1)%every != 0 {
			return 0, 0, false
		}
		if r.Times > 0 && st.ruleFired[i] >= r.Times {
			return 0, 0, false
		}
		st.ruleFired[i]++
		d := r.Delay
		if d <= 0 {
			d = defaultDelay
		}
		return r.Kind, d, true
	}
	if st.plan.Rate <= 0 {
		return 0, 0, false
	}
	h := mix(st.plan.Seed, site, n)
	if float64(h%1_000_000) >= st.plan.Rate*1e6 {
		return 0, 0, false
	}
	kinds := st.plan.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{Error, Panic, Delay}
	}
	kind := kinds[(h/1_000_000)%uint64(len(kinds))]
	d := st.plan.Delay
	if d <= 0 {
		d = defaultDelay
	}
	return kind, d, true
}

// matchSite reports whether pattern (exact, or prefix ending in '*')
// matches site.
func matchSite(pattern, site string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(site, pattern[:len(pattern)-1])
	}
	return pattern == site
}

// mix hashes (seed, site, n) into the decision space.
func mix(seed uint64, site string, n uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(seed)
	h.Write([]byte(site))
	put(n)
	return h.Sum64()
}

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "HUMMER_FAULTS"

// ArmFromEnv parses spec (typically os.Getenv(EnvVar)) and arms the
// resulting plan. An empty spec leaves injection disarmed and returns
// (false, nil); a malformed spec returns an error without arming.
func ArmFromEnv(spec string) (bool, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return false, nil
	}
	p, err := ParsePlan(spec)
	if err != nil {
		return false, err
	}
	Arm(p)
	return true, nil
}

// ParsePlan parses the HUMMER_FAULTS syntax documented in the package
// comment.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, ":") {
			if err := parseGlobals(p, part); err != nil {
				return nil, err
			}
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

func parseGlobals(p *Plan, part string) error {
	for _, kv := range strings.Split(part, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("faultinject: global setting %q is not key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("faultinject: seed %q: %v", val, err)
			}
			p.Seed = n
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("faultinject: rate %q: want a probability in [0, 1]", val)
			}
			p.Rate = f
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("faultinject: delay %q: %v", val, err)
			}
			p.Delay = d
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				k, err := parseKind(name)
				if err != nil {
					return err
				}
				p.Kinds = append(p.Kinds, k)
			}
		default:
			return fmt.Errorf("faultinject: unknown global setting %q", key)
		}
	}
	return nil
}

func parseRule(part string) (Rule, error) {
	fields := strings.Split(part, ":")
	if len(fields) < 2 {
		return Rule{}, fmt.Errorf("faultinject: rule %q: want site:kind[:opt=val...]", part)
	}
	kind, err := parseKind(fields[1])
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Site: fields[0], Kind: kind}
	for _, opt := range fields[2:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Rule{}, fmt.Errorf("faultinject: rule option %q is not key=value", opt)
		}
		switch key {
		case "every", "after", "times":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("faultinject: rule option %s=%q: %v", key, val, err)
			}
			switch key {
			case "every":
				r.Every = n
			case "after":
				r.After = n
			case "times":
				r.Times = n
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Rule{}, fmt.Errorf("faultinject: rule delay %q: %v", val, err)
			}
			r.Delay = d
		default:
			return Rule{}, fmt.Errorf("faultinject: unknown rule option %q", key)
		}
	}
	if !slices.ContainsFunc(Sites(), func(s string) bool { return matchSite(r.Site, s) }) {
		return Rule{}, fmt.Errorf("faultinject: rule %q: site matches no fault point (see Sites)", part)
	}
	return r, nil
}

func parseKind(name string) (Kind, error) {
	switch strings.TrimSpace(name) {
	case "error":
		return Error, nil
	case "panic":
		return Panic, nil
	case "delay":
		return Delay, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown fault kind %q (want panic, error or delay)", name)
	}
}
