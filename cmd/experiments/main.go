// Command experiments regenerates the paper's evaluation tables and
// figures by running the full DyDroid pipeline over a freshly generated
// marketplace.
//
// Usage:
//
//	experiments [-scale 1.0] [-seed 2016] [-workers N] [-table N | -figure 3]
//	            [-o report.txt] [-metrics] [-failfast] [-warm DIR] [-trace DIR]
//
// With no -table/-figure flag the complete report (Tables I-X and
// Figure 3) is printed. With -warm the run keeps a content-addressed
// result store in DIR: re-runs with the same seed and event budget skip
// already-analyzed apps. With -metrics the run's counters and its latency
// report go to stderr: one histogram per span name folded from every
// app's span tree, plus the slowest apps. With -trace the run writes its
// observability artifacts to DIR: traces.jsonl (the span trees of the
// apps the latency report ranks slowest, renderable with `apkinspect
// trace`), runstats.json (throughput, status and counter totals) and
// fleet.json (the shard's mergeable measurement snapshot, span
// histograms included — combine sharded runs with `apkinspect fleet
// merge`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/dydroid/dydroid/internal/experiments"
	"github.com/dydroid/dydroid/internal/resultstore"
)

func main() {
	scale := flag.Float64("scale", 1.0, "marketplace scale (1.0 = the paper's 58,739 apps)")
	seed := flag.Int64("seed", 2016, "generation and fuzzing seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel pipeline workers")
	table := flag.Int("table", 0, "print only this table (1-10)")
	figure := flag.Int("figure", 0, "print only this figure (3)")
	out := flag.String("o", "", "write the report to a file instead of stdout")
	quiet := flag.Bool("q", false, "suppress progress output")
	showMetrics := flag.Bool("metrics", false, "print the run's stats (throughput, failure and status counts, per-span latency, slowest apps) to stderr")
	failFast := flag.Bool("failfast", false, "abort on the first per-app failure instead of recording it and continuing")
	warmDir := flag.String("warm", "", "warm-start result store directory (re-runs skip already-analyzed apps)")
	traceDir := flag.String("trace", "", "write traces.jsonl, runstats.json and fleet.json to this directory")
	stream := flag.Bool("stream", true, "stream the corpus into the workers instead of materializing it (results are identical either way)")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: *workers, TraceDir: *traceDir, Stream: *stream}
	if *failFast {
		cfg.OnFailure = experiments.FailFast
	}
	if *warmDir != "" {
		ws, err := resultstore.Open(resultstore.Options{Dir: *warmDir, Version: experiments.WarmVersion})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		cfg.Warm = ws
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\ranalyzed %d/%d apps", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := experiments.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if n := res.RunStats.Failed; n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d app(s) failed analysis and were recorded as %s:\n%v\n",
			n, "analysis-error", res.Err())
	}
	if *showMetrics {
		fmt.Fprintln(os.Stderr, res.RunStats)
		fmt.Fprintln(os.Stderr, res.Fleet.LatencyReport())
	}

	var report string
	switch {
	case *figure == 3:
		report = res.Figure3()
	case *table != 0:
		sections := map[int]func() string{
			1: res.TableI, 2: res.TableII, 3: res.TableIII, 4: res.TableIV,
			5: res.TableV, 6: res.TableVI, 7: res.TableVII, 8: res.TableVIII,
			9: res.TableIX, 10: res.TableX,
		}
		fn, ok := sections[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: no table %d\n", *table)
			os.Exit(2)
		}
		report = fn()
	default:
		report = res.Report()
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
		return
	}
	fmt.Print(report)
}
