package hummer

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
)

// studentSources returns the studentDB fixture's two relations.
func studentSources(t *testing.T) (ee, cs *Relation) {
	t.Helper()
	db := studentDB(t)
	ee, err := db.Table("EE_Student")
	if err != nil {
		t.Fatal(err)
	}
	cs, err = db.Table("CS_Students")
	if err != nil {
		t.Fatal(err)
	}
	return ee, cs
}

// TestDetectDuplicatesPublic: DetectDuplicates and its Context form
// return exactly what dupdetect.DetectContext returns, and a cancelled
// ctx stops the detection with context.Canceled.
func TestDetectDuplicatesPublic(t *testing.T) {
	ee, _ := studentSources(t)
	cfg := DetectionConfig{Threshold: 0.5}
	want, err := dupdetect.DetectContext(t.Context(), ee, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.CandidatePairs == 0 {
		t.Fatal("the fixture's source produced no candidate pairs; the comparison tests nothing")
	}
	got, err := DetectDuplicates(ee, cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("DetectDuplicates = %+v, %v; want %+v", got, err, want)
	}
	got, err = DetectDuplicatesContext(t.Context(), ee, cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("DetectDuplicatesContext = %+v, %v; want %+v", got, err, want)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := DetectDuplicatesContext(ctx, ee, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled DetectDuplicatesContext: err = %v, want context.Canceled", err)
	}
}

// TestMatchSchemasPublic: MatchSchemas and its Context form return
// exactly what dumas.MatchContext returns, and a cancelled ctx stops
// the match with context.Canceled.
func TestMatchSchemasPublic(t *testing.T) {
	ee, cs := studentSources(t)
	var cfg MatchConfig
	want, err := dumas.MatchContext(t.Context(), ee, cs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Correspondences) == 0 {
		t.Fatal("the fixture's sources produced no correspondences; the comparison tests nothing")
	}
	got, err := MatchSchemas(ee, cs, cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("MatchSchemas = %+v, %v; want %+v", got, err, want)
	}
	got, err = MatchSchemasContext(t.Context(), ee, cs, cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("MatchSchemasContext = %+v, %v; want %+v", got, err, want)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := MatchSchemasContext(ctx, ee, cs, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled MatchSchemasContext: err = %v, want context.Canceled", err)
	}
}
