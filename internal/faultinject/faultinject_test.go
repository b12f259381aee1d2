package faultinject

import (
	"errors"
	"testing"
	"time"
)

// arm installs a plan and disarms at cleanup so tests never leak an
// armed schedule into the rest of the suite.
func arm(t *testing.T, p *Plan) {
	t.Helper()
	Arm(p)
	t.Cleanup(Disarm)
}

func TestDisarmedHitIsNil(t *testing.T) {
	Disarm()
	if err := Hit(SiteQCacheLeader); err != nil {
		t.Fatalf("disarmed Hit = %v, want nil", err)
	}
	if Armed() {
		t.Fatal("Armed() = true after Disarm")
	}
	if Hits() != nil || Fired() != nil {
		t.Fatal("disarmed snapshots should be nil")
	}
}

func TestRuleEveryAfterTimes(t *testing.T) {
	arm(t, &Plan{Rules: []Rule{
		{Site: "s", Kind: Error, Every: 3, After: 2, Times: 2},
	}})
	// Hits 1,2 skipped (after=2); fires at 3, 6; then capped by times=2.
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := Hit("s"); err != nil {
			fired = append(fired, i)
			var ie *InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("hit %d: err = %T, want *InjectedError", i, err)
			}
			if ie.Site != "s" || ie.Hit != uint64(i) {
				t.Errorf("hit %d: got site=%q hit=%d", i, ie.Site, ie.Hit)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Fatalf("fired at %v, want [3 6]", fired)
	}
	if got := Fired()["s"]; got != 2 {
		t.Errorf("Fired[s] = %d, want 2", got)
	}
	if got := Hits()["s"]; got != 12 {
		t.Errorf("Hits[s] = %d, want 12", got)
	}
}

func TestRulePanicKind(t *testing.T) {
	arm(t, &Plan{Rules: []Rule{{Site: "p", Kind: Panic}}})
	defer func() {
		r := recover()
		pv, ok := r.(*PanicValue)
		if !ok {
			t.Fatalf("recovered %v (%T), want *PanicValue", r, r)
		}
		if pv.Site != "p" || pv.Hit != 1 {
			t.Errorf("PanicValue = %+v, want site p hit 1", pv)
		}
	}()
	Hit("p")
	t.Fatal("Hit did not panic")
}

func TestRuleDelayKind(t *testing.T) {
	arm(t, &Plan{Rules: []Rule{{Site: "d", Kind: Delay, Delay: 20 * time.Millisecond}}})
	start := time.Now()
	if err := Hit("d"); err != nil {
		t.Fatalf("delay Hit = %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("delay hit returned after %v, want >= 20ms", elapsed)
	}
}

func TestPrefixMatch(t *testing.T) {
	arm(t, &Plan{Rules: []Rule{{Site: "parshard.*", Kind: Error}}})
	if err := Hit(SiteParshardWorker); err == nil {
		t.Error("parshard.worker should match parshard.*")
	}
	if err := Hit(SiteQCacheLeader); err != nil {
		t.Errorf("qcache site matched parshard.* rule: %v", err)
	}
}

func TestFirstMatchWins(t *testing.T) {
	arm(t, &Plan{Rules: []Rule{
		{Site: "s", Kind: Delay, Delay: time.Microsecond},
		{Site: "s", Kind: Error},
	}})
	// The delay rule shadows the error rule entirely.
	for i := 0; i < 5; i++ {
		if err := Hit("s"); err != nil {
			t.Fatalf("hit %d: %v — second rule fired despite first match", i, err)
		}
	}
}

// TestSeededScheduleDeterministic: two runs with the same plan make
// identical decisions at identical hit counts.
func TestSeededScheduleDeterministic(t *testing.T) {
	run := func() []int {
		arm(t, &Plan{Seed: 42, Rate: 0.3, Kinds: []Kind{Error}})
		var fired []int
		for i := 1; i <= 200; i++ {
			if err := Hit("det.site"); err != nil {
				fired = append(fired, i)
			}
		}
		Disarm()
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 200 hits fired nothing; schedule broken")
	}
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at index %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSeedChangesSchedule: a different seed yields a different
// schedule (overwhelmingly likely over 200 draws).
func TestSeedChangesSchedule(t *testing.T) {
	collect := func(seed uint64) map[int]bool {
		arm(t, &Plan{Seed: seed, Rate: 0.3, Kinds: []Kind{Error}})
		fired := make(map[int]bool)
		for i := 1; i <= 200; i++ {
			if err := Hit("seed.site"); err != nil {
				fired[i] = true
			}
		}
		Disarm()
		return fired
	}
	a, b := collect(1), collect(2)
	same := true
	for i := range a {
		if !b[i] {
			same = false
		}
	}
	if same && len(a) == len(b) {
		t.Error("seeds 1 and 2 produced identical schedules")
	}
}

func TestArmResetsCounters(t *testing.T) {
	arm(t, &Plan{Rules: []Rule{{Site: "s", Kind: Error, Every: 2}}})
	Hit("s") // fires (hit 1)
	Arm(&Plan{Rules: []Rule{{Site: "s", Kind: Error, Every: 2}}})
	if got := Hits()["s"]; got != 0 {
		t.Errorf("Hits[s] = %d after re-arm, want 0", got)
	}
	if err := Hit("s"); err == nil {
		t.Error("hit 1 after re-arm should fire again")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=42,rate=0.25,delay=5ms,kinds=panic+error; qcache.leader.compute:panic:every=3:after=1:times=2 ; parshard.*:delay:delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Rate != 0.25 || p.Delay != 5*time.Millisecond {
		t.Errorf("globals = seed=%d rate=%v delay=%v", p.Seed, p.Rate, p.Delay)
	}
	if len(p.Kinds) != 2 || p.Kinds[0] != Panic || p.Kinds[1] != Error {
		t.Errorf("Kinds = %v", p.Kinds)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("Rules = %+v, want 2", p.Rules)
	}
	r := p.Rules[0]
	if r.Site != SiteQCacheLeader || r.Kind != Panic || r.Every != 3 || r.After != 1 || r.Times != 2 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = p.Rules[1]
	if r.Site != "parshard.*" || r.Kind != Delay || r.Delay != 2*time.Millisecond {
		t.Errorf("rule 1 = %+v", r)
	}
	// Prefix patterns parse as long as they match some fault point.
	for _, spec := range []string{"parshard.*:error", "*:panic:every=9"} {
		if _, err := ParsePlan(spec); err != nil {
			t.Errorf("ParsePlan(%q) = %v, want nil", spec, err)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"rate=2",               // out of range
		"seed=abc",             // not a number
		"bogus=1",              // unknown global
		"site:teleport",        // unknown kind
		"site:panic:every=x",   // bad option value
		"site:panic:bogus=1",   // unknown option
		"site:panic:every",     // option without value
		"kinds=panic+explode",  // unknown kind in global
		"server.qeury:panic",   // typo'd site
		"parshard.range:panic", // removed site
		"nosuch.*:error",       // prefix matching no site
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", spec)
		}
	}
}

func TestArmFromEnv(t *testing.T) {
	t.Cleanup(Disarm)
	armed, err := ArmFromEnv("")
	if armed || err != nil {
		t.Fatalf("empty spec: armed=%v err=%v, want false, nil", armed, err)
	}
	armed, err = ArmFromEnv("rate=bogus")
	if armed || err == nil {
		t.Fatalf("malformed spec: armed=%v err=%v, want false, error", armed, err)
	}
	if Armed() {
		t.Fatal("malformed spec armed injection")
	}
	armed, err = ArmFromEnv("seed=7,rate=0.5")
	if !armed || err != nil {
		t.Fatalf("valid spec: armed=%v err=%v, want true, nil", armed, err)
	}
	if !Armed() {
		t.Fatal("valid spec did not arm")
	}
}

func TestSitesSortedAndComplete(t *testing.T) {
	sites := Sites()
	if len(sites) != 11 {
		t.Fatalf("Sites() has %d entries, want 11: %v", len(sites), sites)
	}
	for i := 1; i < len(sites); i++ {
		if sites[i-1] >= sites[i] {
			t.Fatalf("Sites() not sorted at %d: %v", i, sites)
		}
	}
}
