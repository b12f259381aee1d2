package parshard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hummer/internal/fault"
	"hummer/internal/faultinject"
)

// sumRun folds 0..n-1 through RunContext at the given worker count —
// the reference workload for fault tests.
func sumRun(ctx context.Context, workers, n int, proc func(item int, out *int)) (int, error) {
	gen := func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return
			}
		}
	}
	return RunContext(ctx, workers, 8, gen,
		func() func(item int, out *int) { return proc },
		func(into *int, chunk int) { *into += chunk })
}

func wantSum(n int) int { return n * (n - 1) / 2 }

// TestWorkerPanicContained: a panic in the caller's processing
// function fails the run with an *InternalError at every worker
// count; a rerun without the fault is byte-identical to baseline.
func TestWorkerPanicContained(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 8} {
		boom := true
		proc := func(item int, out *int) {
			if boom && item == 500 {
				panic("worker boom")
			}
			*out += item
		}
		_, err := sumRun(context.Background(), workers, n, proc)
		var ie *fault.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("workers=%d: err = %v (%T), want *InternalError", workers, err, err)
		}
		if ie.Site != faultinject.SiteParshardWorker {
			t.Errorf("workers=%d: Site = %q, want %q", workers, ie.Site, faultinject.SiteParshardWorker)
		}
		// The same machinery still produces the canonical result.
		boom = false
		got, err := sumRun(context.Background(), workers, n, proc)
		if err != nil || got != wantSum(n) {
			t.Errorf("workers=%d rerun: got %d, %v; want %d, nil", workers, got, err, wantSum(n))
		}
	}
}

// TestGeneratorPanicContained: a panic inside the generator stream is
// recovered at the generator boundary; workers and collector join.
func TestGeneratorPanicContained(t *testing.T) {
	gen := func(yield func(int) bool) {
		for i := 0; i < 100; i++ {
			if i == 50 {
				panic("generator boom")
			}
			if !yield(i) {
				return
			}
		}
	}
	_, err := RunContext(context.Background(), 4, 8, gen,
		func() func(item int, out *int) { return func(item int, out *int) { *out += item } },
		func(into *int, chunk int) { *into += chunk })
	var ie *fault.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Site != faultinject.SiteParshardGenerator {
		t.Errorf("Site = %q, want %q", ie.Site, faultinject.SiteParshardGenerator)
	}
}

// TestNewWorkerPanicContained: worker-state construction is inside
// the containment boundary too.
func TestNewWorkerPanicContained(t *testing.T) {
	gen := func(yield func(int) bool) {
		for i := 0; i < 100; i++ {
			if !yield(i) {
				return
			}
		}
	}
	_, err := RunContext(context.Background(), 4, 8, gen,
		func() func(item int, out *int) { panic("newWorker boom") },
		func(into *int, chunk int) { *into += chunk })
	var ie *fault.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
}

// TestRunRePanicsContainedFault: Run has no error return, so the
// contained *InternalError is re-thrown — and a recovery boundary one
// level up sees the identical error, not a re-wrap.
func TestRunRePanicsContainedFault(t *testing.T) {
	before := fault.Recovered()
	err := func() (err error) {
		defer fault.Capture("test.outer", &err)
		Run(4, 8,
			func(yield func(int) bool) {
				for i := 0; i < 100; i++ {
					if !yield(i) {
						return
					}
				}
			},
			func() func(item int, out *int) {
				return func(item int, out *int) {
					if item == 42 {
						panic("run boom")
					}
				}
			},
			func(into *int, chunk int) {})
		return nil
	}()
	var ie *fault.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Site != faultinject.SiteParshardWorker {
		t.Errorf("Site = %q, want the original worker site", ie.Site)
	}
	if got := fault.Recovered() - before; got != 1 {
		t.Errorf("panic counted %d times crossing two boundaries, want 1", got)
	}
}

// TestRangesPanicContained: shard panics become errors from
// RangesContext, attributed to the worker site — a shard is a worker.
func TestRangesPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := RangesContext(context.Background(), workers, 100, func(shard, lo, hi int) {
			if lo <= 50 && 50 < hi {
				panic("shard boom")
			}
		})
		var ie *fault.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("workers=%d: err = %v (%T), want *InternalError", workers, err, err)
		}
		if ie.Site != faultinject.SiteParshardWorker {
			t.Errorf("workers=%d: Site = %q, want %q", workers, ie.Site, faultinject.SiteParshardWorker)
		}
	}
}

// TestInjectedFaultsAtParshardSites: armed injection at the worker and
// generator sites aborts runs with the injected error; disarmed reruns
// restore the canonical result.
func TestInjectedFaultsAtParshardSites(t *testing.T) {
	const n = 1000
	proc := func(item int, out *int) { *out += item }
	for _, tc := range []struct {
		site    string
		workers int
	}{
		{faultinject.SiteParshardWorker, 1},
		{faultinject.SiteParshardWorker, 4},
		{faultinject.SiteParshardGenerator, 4},
	} {
		faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: tc.site, Kind: faultinject.Error, After: 2},
		}})
		_, err := sumRun(context.Background(), tc.workers, n, proc)
		faultinject.Disarm()
		var inj *faultinject.InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("site=%s workers=%d: err = %v (%T), want *InjectedError", tc.site, tc.workers, err, err)
		}
		if inj.Site != tc.site {
			t.Errorf("injected at %q, want %q", inj.Site, tc.site)
		}
		got, err := sumRun(context.Background(), tc.workers, n, proc)
		if err != nil || got != wantSum(n) {
			t.Errorf("site=%s workers=%d rerun: got %d, %v; want %d, nil", tc.site, tc.workers, got, err, wantSum(n))
		}
	}
}

// TestInjectedPanicAtWorkerSite: an injected panic is contained like a
// genuine one and unwraps to the *PanicValue.
func TestInjectedPanicAtWorkerSite(t *testing.T) {
	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteParshardWorker, Kind: faultinject.Panic},
	}})
	defer faultinject.Disarm()
	_, err := sumRun(context.Background(), 4, 1000, func(item int, out *int) { *out += item })
	var ie *fault.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if _, ok := ie.Recovered.(*faultinject.PanicValue); !ok {
		t.Errorf("Recovered = %v (%T), want *faultinject.PanicValue", ie.Recovered, ie.Recovered)
	}
}

// TestDeterminismSurvivesDelayInjection: delays reorder goroutines
// but never results — the canonical fold is byte-identical.
func TestDeterminismSurvivesDelayInjection(t *testing.T) {
	gen := func(yield func(int) bool) {
		for i := 0; i < 500; i++ {
			if !yield(i) {
				return
			}
		}
	}
	collect := func() []int {
		out, err := RunContext(context.Background(), 4, 16, gen,
			func() func(item int, out *[]int) {
				return func(item int, out *[]int) { *out = append(*out, item*item) }
			},
			func(into *[]int, chunk []int) { *into = append(*into, chunk...) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	baseline := collect()
	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: "parshard.*", Kind: faultinject.Delay, Every: 7, Delay: 100000},
	}})
	defer faultinject.Disarm()
	if got := collect(); !reflect.DeepEqual(got, baseline) {
		t.Fatal("delay injection changed the canonical result")
	}
}
