// Command bench is the repository's one benchmark: seven seeded workloads
// over the three caller-visible paths (HTTP query → decoded rows, cold
// image open → first table, AddEdge×100 → durable publish), every answer
// checked against an independent route, end-to-end metrics from an
// untraced pass and per-layer metrics from a traced one. README.md has
// the tables; BENCHMARK.json at the repository root declares the command,
// the names, the units and the regression bounds.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh --seed <n> --out bench/out/report.json   # all workloads, both passes
//	bash bench/run.sh --repeat 2                               # self-check: two sets must agree
//	bash bench/run.sh --compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// meta identifies the machine, build and inputs a row was measured with.
type meta struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// row is one (workload, pass) of a report.
type row struct {
	meta
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	result
	// Spread is the run-to-run spread of each metric over the repeats of
	// a --repeat run, (max − min) / median; absent on single runs.
	Spread map[string]float64 `json:"spread,omitempty"`
}

// report is what --out writes and --compare reads.
type report struct {
	Rows []row `json:"rows"`
}

func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload (default: all seven)")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Int("seconds", 10, "nominal length of one run's measured window: it does opsPerSecond × seconds operations (workloads.go)")
		trace   = fs.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default: 0 with --workload, both without")
		out     = fs.String("out", "", "write the full report as JSON to this file")
		outDir  = fs.String("outdir", "bench/out", "directory for traces and temporary stores")
		repeat  = fs.Int("repeat", 1, "run the untraced pass this many times and check the sets agree within the bounds")
		compare = fs.Bool("compare", false, "compare two reports: --compare old.json new.json")
		decl    = fs.String("benchmark-json", "BENCHMARK.json", "declaration with the regression bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("--compare takes two report files"))
		}
		d, err := readDeclaration(*decl)
		if err != nil {
			return fail(err)
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1), d.bounds())
	}
	if *seconds < 1 || *repeat < 1 {
		return fail(fmt.Errorf("--seconds and --repeat must be at least 1"))
	}
	selected := workloads
	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{wl}
		if *trace < 0 {
			*trace = 0
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	m := meta{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds,
	}
	var rep report
	var last *result
	for _, wl := range selected {
		cfg := runConfig{wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *outDir, ref: referenceRows}
		if *trace != 1 {
			var sets []*result
			for i := 0; i < *repeat; i++ {
				fmt.Fprintf(os.Stderr, "bench: %s untraced, seed %d, %ds (set %d of %d)\n", wl.name, *seed, *seconds, i+1, *repeat)
				res, err := runUntraced(ctx, cfg)
				if err != nil {
					return fail(fmt.Errorf("%s: %w", wl.name, err))
				}
				sets = append(sets, res)
			}
			last = sets[len(sets)-1]
			rep.Rows = append(rep.Rows, row{meta: m, Workload: wl.name, Trace: 0, result: *last, Spread: spread(sets)})
		}
		if *trace != 0 && *repeat == 1 {
			fmt.Fprintf(os.Stderr, "bench: %s traced, seed %d, %ds\n", wl.name, *seed, *seconds)
			res, err := runTraced(ctx, cfg)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", wl.name, err))
			}
			last = res
			rep.Rows = append(rep.Rows, row{meta: m, Workload: wl.name, Trace: 1, result: *res})
		}
	}
	if *out != "" {
		if err := writeReport(*out, &rep); err != nil {
			return fail(err)
		}
	}

	code := exitCode(&rep)
	if *repeat > 1 {
		d, err := readDeclaration(*decl)
		if err != nil {
			return fail(err)
		}
		if !printSpreads(stdout, &rep, d.bounds()) {
			code = 1
		}
		return code
	}
	// One line per row for people, then — when one workload and one pass
	// were asked for — the bare result as the last line for the driver.
	for _, r := range rep.Rows {
		printRow(stdout, r)
	}
	if *name != "" && len(rep.Rows) == 1 {
		if *trace == 1 {
			d, err := readDeclaration(*decl)
			if err != nil {
				return fail(err)
			}
			last.Metrics = d.everyPerLayer(last.Metrics)
		}
		line, err := json.Marshal(last)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// exitCode is 1 when any row holds a failed or wrongly answered
// operation: a run that is fast but wrong does not pass.
func exitCode(rep *report) int {
	for _, r := range rep.Rows {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// printRow prints every metric of a row by name with its unit, under a
// header carrying the machine, build and seed.
func printRow(w io.Writer, r row) {
	fmt.Fprintf(w, "# %s trace=%d correct=%t attempted=%d failed=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%d\n",
		r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed, r.NumCPU, r.GOMAXPROCS, r.GoVersion, r.Commit, r.Seed, r.Seconds)
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(w, "#   %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
