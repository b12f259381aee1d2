// Command hummer is the HumMer command-line interface: register data
// sources (CSV/JSON/XML files) under aliases and run a Fuse By or
// SELECT query against them.
//
// Usage:
//
//	hummer -csv students1=ee.csv -csv students2=cs.csv \
//	       -query "SELECT Name, RESOLVE(Age, max) FUSE FROM students1, students2 FUSE BY (Name)"
//
// Flags:
//
//	-csv alias=path      register a CSV source (repeatable)
//	-json alias=path     register a JSON source (repeatable)
//	-xml alias=path:tag  register an XML source (repeatable)
//	-query SQL           the query; reads stdin when omitted
//	-lineage             annotate each cell with its sources
//	-no-lineage          don't compute a lineage payload at all
//	                     (queries with WithLineage(false))
//	-trace               print the pipeline intermediates (queries
//	                     with WithTrace: intermediates are opt-in)
//	-no-trace            drop the intermediates even from a cold run
//	                     (the slimmest result; conflicts with -trace)
//	-timeout D           per-query deadline (e.g. 30s; 0 = none)
//	-parallel N          duplicate-detection worker goroutines
//	                     (0 = GOMAXPROCS, 1 = sequential; identical results)
//	-window W            sorted-neighborhood candidate generation
//	-block P             prefix-blocking candidate generation (P = prefix runes)
//	-threshold T         duplicate similarity threshold (default 0.8)
//	-match-parallel N    schema-matching worker goroutines
//	                     (0 = GOMAXPROCS, 1 = sequential; identical results)
//	-match-window W      sorted-neighborhood duplicate discovery for matching
//	-match-dups K        duplicates used for field-wise comparison (default 10)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hummer"
	"hummer/internal/flagspec"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hummer:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("hummer", flag.ContinueOnError)
	var csvs, jsons, xmls flagspec.Multi
	fs.Var(&csvs, "csv", "alias=path of a CSV source (repeatable)")
	fs.Var(&jsons, "json", "alias=path of a JSON source (repeatable)")
	fs.Var(&xmls, "xml", "alias=path:recordTag of an XML source (repeatable)")
	query := fs.String("query", "", "the query; stdin when omitted")
	lineageFlag := fs.Bool("lineage", false, "annotate cells with their sources")
	noLineage := fs.Bool("no-lineage", false, "drop the per-cell lineage from the result")
	trace := fs.Bool("trace", false, "print pipeline intermediates (opt-in per query)")
	noTrace := fs.Bool("no-trace", false, "drop pipeline intermediates even from a cold run")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none)")
	parallel := fs.Int("parallel", 0, "duplicate-detection workers (0 = GOMAXPROCS, 1 = sequential)")
	window := fs.Int("window", 0, "sorted-neighborhood window (0 = exhaustive pairing)")
	block := fs.Int("block", 0, "prefix-blocking key length in runes (0 = off)")
	threshold := fs.Float64("threshold", 0, "duplicate similarity threshold (0 = default 0.8)")
	matchParallel := fs.Int("match-parallel", 0, "schema-matching workers (0 = GOMAXPROCS, 1 = sequential)")
	matchWindow := fs.Int("match-window", 0, "schema-matching sorted-neighborhood window (0 = token index)")
	matchDups := fs.Int("match-dups", 0, "duplicates used for field-wise comparison (0 = default 10)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	db := hummer.New()
	db.SetDetectConfig(hummer.DetectionConfig{
		Threshold:   *threshold,
		Window:      *window,
		Blocking:    *block,
		Parallelism: *parallel,
	})
	db.SetMatchConfig(hummer.MatchConfig{
		MaxDuplicates: *matchDups,
		Window:        *matchWindow,
		Parallelism:   *matchParallel,
	})
	for _, spec := range csvs {
		alias, path, err := flagspec.Split(spec, "=")
		if err != nil {
			return fmt.Errorf("-csv %q: %w", spec, err)
		}
		if err := db.RegisterCSV(alias, path); err != nil {
			return err
		}
	}
	for _, spec := range jsons {
		alias, path, err := flagspec.Split(spec, "=")
		if err != nil {
			return fmt.Errorf("-json %q: %w", spec, err)
		}
		if err := db.RegisterJSON(alias, path); err != nil {
			return err
		}
	}
	for _, spec := range xmls {
		alias, rest, err := flagspec.Split(spec, "=")
		if err != nil {
			return fmt.Errorf("-xml %q: %w", spec, err)
		}
		path, tag, err := flagspec.SplitPathTag(rest)
		if err != nil {
			return fmt.Errorf("-xml %q: want alias=path:recordTag", spec)
		}
		if err := db.RegisterXML(alias, path, tag); err != nil {
			return err
		}
	}

	q := *query
	if q == "" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		q = strings.TrimSpace(string(data))
	}
	if q == "" {
		return fmt.Errorf("no query given (use -query or pipe via stdin)")
	}

	// The per-query options: -trace opts in to the pipeline
	// intermediates (they are no longer an always-on payload),
	// -no-trace/-no-lineage strip the result down to the table, and
	// -timeout bounds the query with its own deadline.
	if *trace && *noTrace {
		return fmt.Errorf("-trace and -no-trace conflict")
	}
	if *lineageFlag && *noLineage {
		return fmt.Errorf("-lineage and -no-lineage conflict")
	}
	var opts []hummer.QueryOption
	if *trace {
		opts = append(opts, hummer.WithTrace())
	}
	if *noTrace {
		opts = append(opts, hummer.WithoutTrace())
	}
	if *noLineage {
		opts = append(opts, hummer.WithLineage(false))
	}
	if *timeout > 0 {
		opts = append(opts, hummer.WithTimeout(*timeout))
	}

	res, err := db.Query(q, opts...)
	if err != nil {
		return err
	}
	if *trace && res.Pipeline != nil {
		p := res.Pipeline
		fmt.Fprintf(stdout, "— sources —\n")
		for _, s := range p.Sources {
			fmt.Fprintln(stdout, s)
		}
		fmt.Fprintf(stdout, "— merged (after matching + outer union) —\n%s", p.Merged)
		if p.Detection != nil {
			fmt.Fprintf(stdout, "— duplicate detection: %d clusters, %d sure pairs, %d borderline, %d/%d comparisons —\n",
				len(p.Detection.Clusters), len(p.Detection.Duplicates),
				len(p.Detection.Borderline), p.Detection.Stats.Compared,
				p.Detection.Stats.CandidatePairs)
		}
		fmt.Fprintf(stdout, "— fused result —\n")
	}
	fmt.Fprint(stdout, res.Rel)
	if *lineageFlag && res.Lineage != nil {
		fmt.Fprintln(stdout, "— lineage —")
		for i := range res.Lineage {
			parts := make([]string, len(res.Lineage[i]))
			for j, l := range res.Lineage[i] {
				parts[j] = l.String()
				if parts[j] == "" {
					parts[j] = "-"
				}
			}
			fmt.Fprintf(stdout, "row %d: %s\n", i, strings.Join(parts, " | "))
		}
	}
	return nil
}
