// Command census executes an ego-centric pattern census script (PATTERN
// definitions and SELECT queries, Section II of the paper) against a
// stored graph and prints the result tables.
//
// Usage:
//
//	census -graph graph.egoc -query script.pcq [-alg PT-OPT] [-seed 1]
//	census -graph graph.egoc -e 'PATTERN t {...} SELECT ...'
//
// Without -alg the cost-based optimizer picks the cheapest of the six
// census algorithms from the graph's statistics snapshot; prefix a query
// with EXPLAIN to see the plan. Binary graphs (.egoc) open as a lazy
// source, so EXPLAIN-only scripts never materialize the graph.
//
// With -mutlog the graph opens as a dynamic store: the append-only
// mutation-log sidecar (<graph>.log) is replayed onto the base image —
// recovering from a torn tail left by a crash — and queries run against
// the recovered snapshot.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/storage"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph file written by gengraph (required)")
		queryPath  = flag.String("query", "", "script file with PATTERN/SELECT statements")
		inline     = flag.String("e", "", "inline script text (alternative to -query)")
		alg        = flag.String("alg", "", "force algorithm: ND-BAS, ND-DIFF, ND-PVOT, PT-BAS, PT-RND, PT-OPT")
		workers    = flag.Int("workers", core.DefaultWorkers(), "parallel workers for the counting phase (1 = sequential, <0 = auto; absurd values are clamped)")
		seed       = flag.Int64("seed", 1, "seed for RND() sampling")
		limit      = flag.Int("limit", 0, "print at most this many rows per table (0 = all)")
		format     = flag.String("format", "table", "output format: table, csv, or json (the same table encoding egoserve returns)")
		timeout    = flag.Duration("timeout", 0, "per-query evaluation deadline (0 = none); on expiry partial results are printed and the exit status is nonzero")
		maxMatches = flag.Int("max-matches", 0, "cap on the global match-set size (0 = unlimited); exceeding it prints partial results and exits nonzero")
		mutlog     = flag.Bool("mutlog", false, "open -graph as a dynamic store: replay its mutation-log sidecar(s) (crash-recovering torn tails) and query the recovered snapshot")
	)
	flag.Parse()
	if *graphPath == "" || (*queryPath == "" && *inline == "") {
		fmt.Fprintln(os.Stderr, "census: -graph and one of -query/-e are required")
		flag.Usage()
		os.Exit(2)
	}
	src := *inline
	if *queryPath != "" {
		data, err := os.ReadFile(*queryPath)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	var e *core.Engine
	if *mutlog {
		ds, err := storage.OpenDynamic(*graphPath)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		records, bytes, baseEpoch := ds.LogStats()
		fmt.Fprintf(os.Stderr, "census: recovered epoch %d (base image at epoch %d, %d shards, %d log records, %d bytes)\n",
			ds.Snapshot().Epoch(), baseEpoch, ds.Shards(), records, bytes)
		e = core.NewEngineLiveSharded(ds.Writer())
	} else {
		st, err := storage.Open(*graphPath, 0)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		e = core.NewEngineFromSource(st)
	}
	e.Alg = core.Algorithm(*alg)
	effective := core.EffectiveWorkers(*workers)
	if effective != *workers {
		fmt.Fprintf(os.Stderr, "census: using %d workers (requested %d)\n", effective, *workers)
	}
	e.Opt.Workers = effective
	e.Opt.Limits = core.Limits{Deadline: *timeout, MaxMatches: *maxMatches}
	e.Seed = *seed
	tables, err := e.Execute(src)
	if err != nil {
		failWith(err, *format, *limit)
	}
	if *format == "json" {
		if err := writeJSON(os.Stdout, tables, *limit); err != nil {
			fatal(err)
		}
		return
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *format == "csv" {
			if err := writeCSV(os.Stdout, t, *limit); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Printf("-- query %d (%s, %d matches, %d rows, %v)\n", i+1, t.Algorithm, t.NumMatches, len(t.Rows), t.Elapsed.Round(time.Millisecond))
		if *limit > 0 && len(t.Rows) > *limit {
			trimmed := *t
			trimmed.Rows = t.Rows[:*limit]
			fmt.Print(core.FormatTable(&trimmed))
			fmt.Printf("... (%d more rows)\n", len(t.Rows)-*limit)
			continue
		}
		fmt.Print(core.FormatTable(t))
	}
}

// writeJSON emits every table as a JSON array using the same per-table
// encoding egoserve's /v1/query responses use, so downstream tooling can
// consume batch and served results identically.
func writeJSON(w io.Writer, tables []*core.Table, limit int) error {
	out := make([]core.TableJSON, 0, len(tables))
	for _, t := range tables {
		if limit > 0 && len(t.Rows) > limit {
			trimmed := *t
			trimmed.Rows = t.Rows[:limit]
			t = &trimmed
		}
		out = append(out, core.NewTableJSON(t))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeCSV emits one table in RFC-4180 CSV for downstream analysis.
func writeCSV(w io.Writer, t *core.Table, limit int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	rows := t.Rows
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "census: ") {
		msg = "census: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// failWith reports a query failure and exits nonzero. Deadline and limit
// failures first print the rows the query produced before it stopped
// (marked as partial), then the diagnostic; internal errors include the
// plan that was executing.
func failWith(err error, format string, limit int) {
	var ce *core.CanceledError
	var le *core.LimitError
	var ie *core.InternalError
	switch {
	case errors.As(err, &ce):
		printPartial(ce.PartialTable, format, limit)
	case errors.As(err, &le):
		printPartial(le.PartialTable, format, limit)
	case errors.As(err, &ie):
		if ie.Plan != "" {
			fmt.Fprintf(os.Stderr, "census: plan was:\n%s", ie.Plan)
		}
	}
	fatal(err)
}

func printPartial(t *core.Table, format string, limit int) {
	if t == nil || len(t.Rows) == 0 {
		return
	}
	if format == "json" {
		writeJSON(os.Stdout, []*core.Table{t}, limit)
		return
	}
	fmt.Printf("-- partial results (%d rows before the query stopped)\n", len(t.Rows))
	if format == "csv" {
		writeCSV(os.Stdout, t, limit)
		return
	}
	if limit > 0 && len(t.Rows) > limit {
		trimmed := *t
		trimmed.Rows = t.Rows[:limit]
		fmt.Print(core.FormatTable(&trimmed))
		fmt.Printf("... (%d more rows)\n", len(t.Rows)-limit)
		return
	}
	fmt.Print(core.FormatTable(t))
}
