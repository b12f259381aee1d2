package plan

import (
	"context"
	"errors"
	"testing"

	"hummer/internal/fault"
	"hummer/internal/faultinject"
)

const faultFuseQuery = `SELECT Name FUSE FROM EE_Student, CS_Students FUSE BY (Name)`

// TestStreamProducerPanicContained: an injected panic in the stream's
// execution becomes the stream's terminal *InternalError — the
// consumer's Next/Err see it, nothing crashes, and the executor keeps
// serving afterwards.
func TestStreamProducerPanicContained(t *testing.T) {
	e := testExecutor(t)
	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SitePlanStream, Kind: faultinject.Panic},
	}})
	rows, err := e.StreamContext(context.Background(), faultFuseQuery, ExecOptions{})
	if err != nil {
		faultinject.Disarm()
		t.Fatal(err)
	}
	for rows.Next() {
	}
	streamErr := rows.Err()
	rows.Close()
	faultinject.Disarm()

	var ie *fault.InternalError
	if !errors.As(streamErr, &ie) {
		t.Fatalf("stream err = %v (%T), want *InternalError", streamErr, streamErr)
	}
	if ie.Site != faultinject.SitePlanStream {
		t.Errorf("Site = %q, want %q", ie.Site, faultinject.SitePlanStream)
	}

	// The executor still streams the canonical result.
	rows, err = e.StreamContext(context.Background(), faultFuseQuery, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("post-fault stream: %v", err)
	}
	rows.Close()
	if n == 0 {
		t.Fatal("post-fault stream yielded no rows")
	}
}

// TestStreamProducerContainsDeepPanic: a panic fired deep inside the
// pipeline (the detection phase) surfaces as the stream's terminal
// error, contained at the stream's boundary.
func TestStreamProducerContainsDeepPanic(t *testing.T) {
	e := testExecutor(t)
	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteCoreDetect, Kind: faultinject.Panic},
	}})
	defer faultinject.Disarm()
	rows, err := e.StreamContext(context.Background(), faultFuseQuery, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	streamErr := rows.Err()
	rows.Close()
	var ie *fault.InternalError
	if !errors.As(streamErr, &ie) {
		t.Fatalf("stream err = %v (%T), want *InternalError", streamErr, streamErr)
	}
	// The panic fired below the producer (inside the pipeline) and was
	// contained at the producer boundary.
	if ie.Site != faultinject.SitePlanStream {
		t.Errorf("Site = %q, want the producer boundary %q", ie.Site, faultinject.SitePlanStream)
	}
}

// TestInjectedQueryErrors: error-kind injections at the plan.query,
// core.match and core.detect sites fail one query with the injected
// error; the next run is clean and byte-identical to baseline.
func TestInjectedQueryErrors(t *testing.T) {
	for _, site := range []string{
		faultinject.SitePlanQuery,
		faultinject.SiteCoreMatch,
		faultinject.SiteCoreDetect,
		faultinject.SiteEngineMaterialize,
	} {
		e := testExecutor(t)
		baseline, err := e.QueryContext(context.Background(), faultFuseQuery)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: site, Kind: faultinject.Error},
		}})
		_, err = e.QueryContext(context.Background(), faultFuseQuery)
		faultinject.Disarm()
		var inj *faultinject.InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("site %s: err = %v (%T), want *InjectedError", site, err, err)
		}
		res, err := e.QueryContext(context.Background(), faultFuseQuery)
		if err != nil {
			t.Fatalf("site %s rerun: %v", site, err)
		}
		if res.Rel.Len() != baseline.Rel.Len() {
			t.Errorf("site %s rerun: %d rows, want %d", site, res.Rel.Len(), baseline.Rel.Len())
		}
	}
}
