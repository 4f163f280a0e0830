// Command experiments regenerates the paper's evaluation figures
// (Fig 4(a)–(h)) as printed series.
//
// Usage:
//
//	experiments -fig 4a [-scale unit|small|paper] [-seed 1] [-ndbas] [-v]
//	experiments -fig all -scale small
//	experiments -fig plan -scale small  # planner audit: q-error and regret
//
// Scale "unit" finishes in seconds, "small" in minutes, and "paper"
// reproduces the paper's sizes (hours; the GQL square measurement alone
// took the original authors 37 hours). The plan audit times all six
// drivers on 48 cases at unit scale and on the 144 cases the cost
// constants were fit on at the larger scales (a few minutes).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"

	"egocensus/internal/exp"
)

func main() {
	var (
		figID   = flag.String("fig", "all", "figure to run: 4a..4h, plan, ext or all")
		scale   = flag.String("scale", "unit", "experiment scale: unit, small or paper")
		seed    = flag.Int64("seed", 1, "random seed")
		ndbas   = flag.Bool("ndbas", false, "include the ND-BAS baseline everywhere (very slow)")
		verbose = flag.Bool("v", false, "stream progress lines while running")
		csvOut  = flag.String("csv", "", "also append raw measurements to this CSV file")
	)
	flag.Parse()
	sc, err := exp.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg := exp.Config{Scale: sc, Seed: *seed, IncludeNDBas: *ndbas}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	var figures []exp.Figure
	if *figID == "all" {
		figures = exp.Figures()
	} else {
		f, err := exp.FigureByID(*figID)
		if err != nil {
			fatal(err)
		}
		figures = []exp.Figure{f}
	}
	for i, f := range figures {
		if i > 0 {
			fmt.Println()
		}
		ms, err := f.Run(cfg, progress)
		if err != nil {
			fatal(fmt.Errorf("figure %s: %w", f.ID, err))
		}
		exp.Print(os.Stdout, f, ms)
		if *csvOut != "" {
			if err := appendCSV(*csvOut, f, ms); err != nil {
				fatal(err)
			}
		}
	}
}

// appendCSV appends one row per measurement in long format:
// figure,label,seconds,key,value (one extra row per named value).
func appendCSV(path string, f exp.Figure, ms []exp.Measurement) error {
	file, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer file.Close()
	w := csv.NewWriter(file)
	for _, m := range ms {
		if err := w.Write([]string{f.ID, m.Label(), fmt.Sprintf("%.6f", m.Seconds), "", ""}); err != nil {
			return err
		}
		for _, kv := range m.Values {
			if err := w.Write([]string{f.ID, m.Label(), "", kv.Key, kv.Value}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}
