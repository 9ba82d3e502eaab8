// Command mrperf is the unified performance-benchmark runner: one
// scenario registry spanning the fluid kernel, the real engine
// runtime, the sharded shuffle store, trace capture, chaos recovery,
// and end-to-end experiment figures, written as one versioned JSON
// report with robust statistics and an environment fingerprint.
//
//	mrperf -run all -short -o BENCH_perf.json
//	mrperf -run 'kernel/*,engine/shuffle-heavy' -reps 10
//	mrperf -list
//
// mrperf only writes reports. Judging one against a baseline is
// `cigate perf -baseline BENCH_perf.json -current <report>`.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcmr/perf"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	fs := flag.NewFlagSet("mrperf", flag.ExitOnError)
	var (
		pattern = fs.String("run", "all", "comma-separated scenario names or globs ('all', 'kernel/*')")
		short   = fs.Bool("short", false, "run reduced scales (the CI smoke size)")
		reps    = fs.Int("reps", 0, "measured repetitions per scenario (default 5 short, 15 full)")
		warmup  = fs.Int("warmup", 0, "unmeasured warmup runs per scenario (default 1)")
		out     = fs.String("o", "", "write the JSON report to this file (default stdout)")
		list    = fs.Bool("list", false, "list registered scenarios and exit")
		quiet   = fs.Bool("q", false, "suppress per-repetition progress")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fatal("unexpected argument %q (compare reports with `cigate perf`)", fs.Arg(0))
	}

	if *list {
		for _, s := range perf.Scenarios() {
			fmt.Printf("%-36s %s\n", s.Name, s.Desc)
		}
		return
	}
	scens, err := perf.Select(*pattern)
	if err != nil {
		fatal("%v", err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mrperf: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	rep, err := perf.RunScenarios(scens, perf.RunOptions{Short: *short, Reps: *reps, Warmup: *warmup}, logf)
	if err != nil {
		fatal("%v", err)
	}
	if *out == "" {
		data, err := rep.Encode()
		if err != nil {
			fatal("%v", err)
		}
		os.Stdout.Write(data)
		return
	}
	if err := rep.WriteFile(*out); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "mrperf: wrote %d scenarios to %s\n", len(rep.Scenarios), *out)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mrperf: "+format+"\n", args...)
	os.Exit(1)
}
