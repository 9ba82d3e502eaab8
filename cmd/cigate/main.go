// Command cigate is the single gatekeeper: every pass/fail performance
// or quality gate (coverage floor, trace-capture overhead, kernel
// speedup margin, A/B timing, perf regression) runs through this one Go
// tool, so the exact same logic runs locally and in CI. The measuring
// gates run their scenarios through perf.RunScenarios themselves;
// cmd/mrperf only writes reports.
//
//	cigate coverage -profile /tmp/cover.out -floor 70
//	cigate trace-overhead -max 0.05
//	cigate kernel -min-speedup 3 -min-peak 4000
//	cigate ab
//	cigate perf -baseline BENCH_perf.json -current /tmp/bench_perf.json
//
// Each subcommand prints the measured numbers, then exits 1 when its
// gate fails (2 on usage/IO/measurement errors).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"hpcmr/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "coverage":
		coverageCmd(os.Args[2:])
	case "trace-overhead":
		traceOverheadCmd(os.Args[2:])
	case "kernel":
		kernelCmd(os.Args[2:])
	case "ab":
		abCmd(os.Args[2:])
	case "perf":
		perfCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cigate {coverage|trace-overhead|kernel|ab|perf} [flags]")
	os.Exit(2)
}

func coverageCmd(args []string) {
	fs := flag.NewFlagSet("cigate coverage", flag.ExitOnError)
	profile := fs.String("profile", "/tmp/cover.out", "go test -coverprofile output")
	floor := fs.Float64("floor", 70, "minimum total statement coverage (percent)")
	fs.Parse(args)

	f, err := os.Open(*profile)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	pct, err := perf.CoverageFromProfile(f)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("coverage: %.1f%% (floor %.1f%%)\n", pct, *floor)
	gate(perf.CheckCoverage(pct, *floor))
}

func traceOverheadCmd(args []string) {
	fs := flag.NewFlagSet("cigate trace-overhead", flag.ExitOnError)
	maxOv := fs.Float64("max", 0.05, "maximum allowed relative overhead")
	fs.Parse(args)

	m, err := perf.MeasureTraceOverhead()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("trace overhead: %+.2f%% (untraced %.4fs, traced %.4fs, %d events / %d tasks)\n",
		m.Overhead()*100, m.UntracedSeconds, m.TracedSeconds, m.Events, m.Tasks)
	gate(perf.CheckTraceOverhead(m, *maxOv))
}

func kernelCmd(args []string) {
	fs := flag.NewFlagSet("cigate kernel", flag.ExitOnError)
	minSpeedup := fs.Float64("min-speedup", 3, "minimum incremental/brute speedup")
	minPeak := fs.Int("min-peak", 4000, "minimum peak concurrent flows")
	fs.Parse(args)

	scens, err := perf.Select("kernel/*")
	if err != nil {
		fatal("%v", err)
	}
	rep, err := perf.RunScenarios(scens, perf.RunOptions{Reps: 5, Warmup: 1}, nil)
	if err != nil {
		fatal("%v", err)
	}
	speedup, peak, err := perf.KernelSpeedup(rep)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("kernel speedup: %.2fx (peak %d flows, incremental %.1f ms, brute %.1f ms)\n",
		speedup, peak, rep.Scenario("kernel/churn-incremental").Stats.MedianNs/1e6,
		rep.Scenario("kernel/churn-brute").Stats.MedianNs/1e6)
	gate(perf.CheckKernel(speedup, peak, *minSpeedup, *minPeak))
}

// abCmd runs every perf.ABPairs pair at short scale, both arms in one
// interleaved RunScenarios call, and requires each A arm to be faster
// than its twin at p < 0.05.
func abCmd(args []string) {
	fs := flag.NewFlagSet("cigate ab", flag.ExitOnError)
	fs.Parse(args)

	var failed []error
	for _, pair := range perf.ABPairs {
		a, b, err := perf.RunAB(pair, perf.RunOptions{Short: true, Reps: 15, Warmup: 2}, nil)
		if err != nil {
			fatal("%v", err)
		}
		p, err := perf.CheckAB(a, b, 0.05)
		fmt.Printf("%s vs %s: median %.2fms vs %.2fms, p=%.4f\n",
			a.Name, b.Name, a.Stats.MedianNs/1e6, b.Stats.MedianNs/1e6, p)
		if err != nil {
			failed = append(failed, err)
		}
	}
	gate(errors.Join(failed...))
}

func perfCmd(args []string) {
	fs := flag.NewFlagSet("cigate perf", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_perf.json", "baseline perf report")
	current := fs.String("current", "/tmp/bench_perf.json", "current perf report")
	threshold := fs.Float64("threshold", 0, "median-delta that matters (default 0.10)")
	alpha := fs.Float64("alpha", 0, "Mann-Whitney significance level (default 0.05)")
	allocTh := fs.Float64("alloc-threshold", 0, "allocation median-delta that matters (default 0.10)")
	extraTh := fs.Float64("extra-threshold", 0, "gated-extra (shuffle volume) growth that matters (default 0.10)")
	fs.Parse(args)

	base, err := perf.LoadReport(*baseline)
	if err != nil {
		fatal("%v", err)
	}
	cur, err := perf.LoadReport(*current)
	if err != nil {
		fatal("%v", err)
	}
	cmp := perf.Compare(base, cur, perf.Thresholds{
		MedianDelta: *threshold, Alpha: *alpha, AllocDelta: *allocTh, ExtraDelta: *extraTh,
	})
	fmt.Print(cmp.Table())
	if cmp.Regressed() {
		fmt.Fprintln(os.Stderr, "cigate: performance regression detected")
		os.Exit(1)
	}
}

// gate prints err and exits 1 when a gate fails.
func gate(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigate: GATE FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("cigate: ok")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cigate: "+format+"\n", args...)
	os.Exit(2)
}
