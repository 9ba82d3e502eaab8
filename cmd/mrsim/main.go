// Command mrsim runs a single simulated MapReduce job on a configurable
// cluster and prints its per-phase dissection and task statistics — the
// exploratory companion to mrbench's fixed experiment suite.
//
// Usage examples:
//
//	mrsim -bench groupby -data 600e9 -split 256e6 -device ssd
//	mrsim -bench grep -data 200e9 -input lustre -nodes 50
//	mrsim -bench lr -data 100e9 -input hdfs -policy delay
//	mrsim -bench groupby -data 1.2e12 -policy elb -store local -skew
//
// Tracing: -trace writes a Chrome trace_event JSON of the run (task,
// fetch, and scheduler-decision spans on the virtual clock; load it in
// Perfetto or chrome://tracing, or pipe "-trace -" into mrtrace):
//
//	mrsim -bench groupby -data 400e9 -skew -policy elb -trace - | mrtrace summary
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/dfs"
	"hpcmr/internal/lustre"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
	"hpcmr/trace"
)

func main() {
	var (
		bench      = flag.String("bench", "groupby", "benchmark: groupby | grep | lr")
		data       = flag.Float64("data", 100e9, "input size in bytes")
		split      = flag.Float64("split", 256e6, "split size in bytes")
		nodes      = flag.Int("nodes", 100, "worker nodes")
		device     = flag.String("device", "ramdisk", "local device: ramdisk | ssd | none")
		input      = flag.String("input", "generated", "input source: generated | hdfs | lustre")
		store      = flag.String("store", "local", "intermediate store: local | lustre-local | lustre-shared | none")
		policy     = flag.String("policy", "fifo", "map policy: fifo | locality | delay | elb")
		cad        = flag.Bool("cad", false, "enable congestion-aware dispatching for the storing phase")
		skew       = flag.Bool("skew", false, "enable node performance skew")
		seed       = flag.Int64("seed", 1, "skew seed")
		verbose    = flag.Bool("v", false, "print per-iteration dissections")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON to this file ('-' = stdout)")
		traceJSONL = flag.String("trace-jsonl", "", "write trace events as JSONL to this file ('-' = stdout)")
	)
	flag.Parse()

	// The human report moves to stderr when a trace streams to stdout.
	report := io.Writer(os.Stdout)
	if *traceOut == "-" || *traceJSONL == "-" {
		report = os.Stderr
	}

	cfg := cluster.DefaultConfig(*nodes)
	cfg.Seed = *seed
	if !*skew {
		cfg.Skew = cluster.SkewConfig{}
	}
	switch *device {
	case "ramdisk":
		cfg.LocalDevice = cluster.RAMDiskDevice
	case "ssd":
		cfg.LocalDevice = cluster.SSDDevice
	case "none":
		cfg.LocalDevice = cluster.NoLocalDevice
	default:
		fatal("unknown -device %q", *device)
	}
	c := cluster.New(cfg)

	var hd *dfs.FS
	if cfg.LocalDevice != cluster.NoLocalDevice {
		hd = dfs.New(c.Sim, c.Fabric, dfs.DefaultConfig(), c.RAMDisks())
	}
	lcfg := lustre.DefaultConfig()
	lcfg.AggregateBandwidth = 47e9 * float64(*nodes) / 100
	lfs := lustre.New(c.Sim, c.Fluid, c.Fabric, lcfg)
	eng := core.NewEngine(c, hd, lfs)

	var tracer *trace.Tracer
	if *traceOut != "" || *traceJSONL != "" {
		tracer = trace.New(c.Sim.Now, trace.Options{})
		eng.Tracer = tracer
	}

	var inputKind core.InputKind
	switch *input {
	case "generated":
		inputKind = core.InputGenerated
	case "hdfs":
		inputKind = core.InputHDFS
	case "lustre":
		inputKind = core.InputLustre
	default:
		fatal("unknown -input %q", *input)
	}

	var spec core.JobSpec
	switch *bench {
	case "groupby":
		spec = workload.GroupBy(*data, *split)
		spec.Input = inputKind
	case "grep":
		spec = workload.Grep(*data, *split, inputKind)
	case "lr":
		spec = workload.LogisticRegression(*data, *split, inputKind)
	default:
		fatal("unknown -bench %q", *bench)
	}

	switch *store {
	case "local":
		if spec.Store != core.StoreNone {
			spec.Store = core.StoreLocal
		}
	case "lustre-local":
		spec.Store = core.StoreLustreLocal
	case "lustre-shared":
		spec.Store = core.StoreLustreShared
	case "none":
		spec.Store = core.StoreNone
	default:
		fatal("unknown -store %q", *store)
	}

	audit := trace.SchedAudit(tracer)
	pol := core.Policies{}
	switch *policy {
	case "fifo":
	case "locality":
		pol.Map = sched.NewLocalityPreferring()
	case "delay":
		d := sched.NewDelay(3)
		d.Audit = audit
		pol.Map = d
	case "elb":
		e := sched.NewELB(*nodes, 0.25)
		e.Audit = audit
		pol.Map = e
	default:
		fatal("unknown -policy %q", *policy)
	}
	if *cad {
		cd := sched.NewCAD(sched.NewPinned())
		cd.Audit = audit
		pol.Store = cd
	}

	res, err := eng.Run(spec, pol)
	if err != nil {
		fatal("%v", err)
	}
	if tracer != nil {
		writeTrace(report, tracer, *traceOut, trace.WriteChrome, "Chrome trace")
		writeTrace(report, tracer, *traceJSONL, trace.WriteJSONL, "JSONL trace")
	}

	fmt.Fprintf(report, "%s: input=%.0f GB split=%.0f MB nodes=%d device=%s input-src=%s store=%s policy=%s cad=%v\n",
		spec.Name, *data/1e9, *split/1e6, *nodes, *device, spec.Input, spec.Store, *policy, *cad)
	fmt.Fprintf(report, "job time: %.2f s\n", res.JobTime)
	fmt.Fprintf(report, "dissection: %s\n", res.Dissection())
	if *verbose {
		for i := range res.Iters {
			it := &res.Iters[i]
			fmt.Fprintf(report, "  iter %d: %s  (map tasks=%d local=%d remote=%d)\n",
				i, it.Dissection(), len(it.Map.Timeline.Records), it.LocalLaunches, it.RemoteLaunches)
		}
	}
	if len(res.Iters) > 0 {
		tl := res.Iters[0].Store.Timeline
		if len(tl.Records) > 0 {
			s := metrics.Summarize(tl.Durations())
			fmt.Fprintf(report, "storing tasks: n=%d min=%.3fs mean=%.3fs max=%.3fs spread=%.1fx\n",
				s.N, s.Min, s.Mean, s.Max, tl.Spread())
		}
		per := res.PerNodeIntermediate()
		if len(per) > 0 {
			s := metrics.Summarize(per)
			fmt.Fprintf(report, "intermediate per node: min=%.2f GB mean=%.2f GB max=%.2f GB\n",
				s.Min/1e9, s.Mean/1e9, s.Max/1e9)
		}
	}
}

// writeTrace exports the captured events to path ('-' = stdout, empty =
// skip) with the given exporter.
func writeTrace(report io.Writer, tr *trace.Tracer, path string,
	write func(io.Writer, []trace.Event) error, what string) {
	if path == "" {
		return
	}
	events := tr.Events()
	if d := tr.Drops(); d > 0 {
		fmt.Fprintf(os.Stderr, "mrsim: trace ring overflowed, oldest %d events dropped\n", d)
	}
	if path == "-" {
		if err := write(os.Stdout, events); err != nil {
			fatal("writing %s: %v", what, err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := write(f, events); err != nil {
		fatal("writing %s: %v", what, err)
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(report, "%s (%d events) written to %s\n", what, len(events), path)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mrsim: "+format+"\n", args...)
	os.Exit(2)
}
