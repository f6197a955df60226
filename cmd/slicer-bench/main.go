// Command slicer-bench regenerates the paper's evaluation tables and
// figures (and this repository's ablation experiments) on the local
// machine.
//
// Usage:
//
//	slicer-bench                     # run everything at quick scale
//	slicer-bench -exp fig3a,fig3b    # run selected experiments
//	slicer-bench -scale full         # the paper's 10K-160K sweep (slow)
//	slicer-bench -list               # list experiment IDs
//
// Results print as aligned text tables; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"slicer/internal/bench"
	"slicer/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag    = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scaleFlag  = flag.String("scale", "quick", "sweep scale: quick or full")
		formatFlag = flag.String("format", "text", "output format: text, csv, markdown or json")
		listFlag   = flag.Bool("list", false, "list experiment IDs and exit")
		quiet      = flag.Bool("q", false, "suppress progress output")
		obsFlag    = flag.Bool("obs", false, "attach a metrics registry and print each experiment's instrument delta as JSON")
		artifact   = flag.String("artifact", "", "write a machine-readable run record (BENCH_<scale>.json) to this path")
		baseline   = flag.String("baseline", "", "compare against a previous artifact; exit non-zero on >-max-regression slowdowns")
		maxRegress = flag.Float64("max-regression", 2.0, "allowed wall-time factor vs -baseline before failing")
	)
	flag.Parse()
	var render func(*bench.Table)
	switch *formatFlag {
	case "text":
		render = func(t *bench.Table) { t.Fprint(os.Stdout) }
	case "csv":
		render = func(t *bench.Table) { t.FprintCSV(os.Stdout) }
	case "markdown":
		render = func(t *bench.Table) { t.FprintMarkdown(os.Stdout) }
	case "json":
		render = func(t *bench.Table) { t.FprintJSON(os.Stdout) }
	default:
		return fmt.Errorf("unknown -format %q (want text, csv, markdown or json)", *formatFlag)
	}

	if *listFlag {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	scale, err := bench.ScaleByName(*scaleFlag)
	if err != nil {
		return err
	}
	runner := bench.NewRunner(scale)
	if !*quiet {
		runner.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  ... "+format+"\n", args...)
		}
	}
	var reg *obs.Registry
	if *obsFlag {
		reg = obs.NewRegistry()
		runner.Registry = reg
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := bench.Find(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("slicer-bench: %d experiment(s) at %s scale\n\n", len(selected), scale.Name)
	record := bench.NewArtifact(scale.Name)
	start := time.Now()
	for _, e := range selected {
		// Collect garbage left by the previous experiment so its live heap
		// (memoized deployments, witness trees) doesn't tax this one's GC.
		runtime.GC()
		expStart := time.Now()
		var before map[string]float64
		if reg != nil {
			before = reg.Snapshot()
		}
		table, err := e.Run(runner)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		render(table)
		var delta map[string]float64
		if reg != nil {
			delta = reg.Delta(before)
			blob, err := json.Marshal(map[string]any{"experiment": e.ID, "delta": delta})
			if err != nil {
				return err
			}
			fmt.Printf("obs %s\n", blob)
		}
		record.Add(e, table, time.Since(expStart), delta)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [%s done in %s]\n", e.ID, time.Since(expStart).Round(time.Millisecond))
		}
	}
	total := time.Since(start)
	record.TotalMs = float64(total) / float64(time.Millisecond)
	fmt.Printf("total: %s\n", total.Round(time.Millisecond))

	if *artifact != "" {
		if err := record.WriteFile(*artifact); err != nil {
			return fmt.Errorf("write artifact: %w", err)
		}
		fmt.Printf("artifact written to %s (commit %s)\n", *artifact, record.GitSHA)
	}
	if *baseline != "" {
		base, err := bench.LoadArtifact(*baseline)
		if err != nil {
			return fmt.Errorf("load baseline: %w", err)
		}
		if regs := bench.Compare(base, record, *maxRegress); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "REGRESSION", r)
			}
			return fmt.Errorf("%d experiment(s) regressed more than %.1fx vs %s", len(regs), *maxRegress, *baseline)
		}
		fmt.Printf("no regression > %.1fx vs %s (%d comparable experiments)\n",
			*maxRegress, *baseline, len(base.Experiments))
	}
	return nil
}
