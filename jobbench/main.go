// Command jobbench is the repository benchmark: it runs one workload
// of real MapReduce jobs through rdd -> engine -> dist and reports the
// end-to-end job metrics, or with -trace 1 the per-layer metrics of a
// separate traced run plus a Chrome trace. See README.md.
//
//	bash jobbench/run.sh --workload shuffle-dist --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hpcmr/trace"
)

// setups is how many times an untraced run brings the system up; the
// median is setup_s.
const setups = 5

// minJobs keeps a run long enough that job_s_tail has ten jobs beyond
// it, whatever --seconds says.
const minJobs = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// tally counts jobs attempted and jobs that errored or returned a wrong
// output.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "jobbench: job %d failed: %v\n", t.attempted, err)
	}
}

// report is one run's outcome.
type report struct {
	tally
	metrics metricSet
	notes   []string
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 20, "how long the timed job loop runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "jobbench: need --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "jobbench-work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	w, err := prepare(*name, *seed, runtime.NumCPU(), dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: prepare %s: %v\n", *name, err)
		return 1
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *traced == 1 {
		out := filepath.Join(".bench_build", fmt.Sprintf("jobbench-%s-seed%d.trace.json", w.name, *seed))
		rep, err = runTraced(w, dur, out)
	} else {
		rep, err = runUntraced(w, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %s: %v\n", w.name, err)
		return 1
	}

	env, _ := json.Marshal(stamp(w, *seed, *seconds, *traced))
	fmt.Printf("env %s\n", env)
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Printf("note %s\n", n)
	}
	correct := rep.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// setUp brings up a fresh instance and runs its untimed first job,
// returning the time from start through the checked first job. With a
// tracer, the instance's engine events feed the Chrome trace and rec.
func setUp(w *workload, tr *trace.Tracer, rec *recorder, t *tally) (instance, float64, error) {
	runtime.GC()
	ts := tr.Now()
	t0 := time.Now()
	inst, err := w.start(tr)
	if err != nil {
		return nil, 0, fmt.Errorf("start: %w", err)
	}
	if tr != nil {
		inst.Runtime().AddListener(trace.EngineListener(tr))
		inst.Runtime().AddListener(rec.listener())
	}
	r, err := inst.Job(tr)
	d := time.Since(t0).Seconds()
	tr.JobSpan("setup", ts, d)
	if err == nil {
		err = w.check(r)
	}
	inst.Release()
	t.record(err)
	return inst, d, nil
}

// sample is one timed job.
type sample struct {
	wall, cpu, rssMB            float64
	alloc, mallocs, gcs, pauses float64
	layers                      jobLayers
}

// timedJob runs one job from a collected heap, then checks its output
// and releases what it left behind, both outside the timed window.
func timedJob(w *workload, inst instance, tr *trace.Tracer, rec *recorder, t *tally) (sample, error) {
	if rec != nil {
		rec.take()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := resetPeakRSS(); err != nil {
		return sample{}, fmt.Errorf("reset peak RSS: %w", err)
	}
	c0 := snapshot(inst.Runtime())
	cpu0 := cpuSeconds()
	ts := tr.Now()
	t0 := time.Now()
	r, err := inst.Job(tr)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	tr.JobSpan(fmt.Sprintf("job-%d", t.attempted+1), ts, wall)
	rss, rssErr := peakRSSMB()
	runtime.ReadMemStats(&m1)
	c1 := snapshot(inst.Runtime())
	if err == nil {
		err = w.check(r)
	}
	inst.Release()
	t.record(err)
	if rssErr != nil {
		return sample{}, rssErr
	}
	s := sample{
		wall: wall, cpu: cpu, rssMB: rss,
		alloc:   float64(m1.TotalAlloc - m0.TotalAlloc),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		gcs:     float64(m1.NumGC - m0.NumGC),
		pauses:  float64(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	if rec != nil {
		stages, tasks, fetches := rec.take()
		s.layers = measureLayers(wall, stages, tasks, fetches, c1.sub(c0), r)
	}
	return s, nil
}

// checkSpill asserts aggregate-spill's preconditions over the timed
// jobs: spill traffic both ways, the budget held, nothing pinned.
func checkSpill(w *workload, d counters) error {
	if w.budget == 0 {
		return nil
	}
	switch {
	case d.spills == 0 || d.restores == 0:
		return fmt.Errorf("spill workload moved no spill traffic (spills=%d restores=%d)", d.spills, d.restores)
	case d.peak > w.budget:
		return fmt.Errorf("resident peak %d exceeds the %d-byte budget", d.peak, w.budget)
	case d.encFail != 0:
		return fmt.Errorf("%d spill encode failures", d.encFail)
	}
	return nil
}

// runUntraced measures the end-to-end metrics: the median of several
// set-ups, then a closed loop of timed jobs on the last instance with
// no listener subscribed.
func runUntraced(w *workload, dur time.Duration) (*report, error) {
	rep := &report{metrics: metricSet{}}
	var setupS []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.Close()
		}
		var d float64
		var err error
		inst, d, err = setUp(w, nil, nil, &rep.tally)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d)
	}
	defer inst.Close()

	c0 := snapshot(inst.Runtime())
	var walls, cpu, rss []float64
	for start := time.Now(); len(walls) < minJobs || time.Since(start) < dur; {
		s, err := timedJob(w, inst, nil, nil, &rep.tally)
		if err != nil {
			return nil, err
		}
		walls = append(walls, s.wall)
		cpu = append(cpu, s.cpu)
		rss = append(rss, s.rssMB)
	}
	if err := checkSpill(w, snapshot(inst.Runtime()).sub(c0)); err != nil {
		return nil, err
	}

	pct, tailV, _ := tail(walls)
	m := rep.metrics
	m.set("job_s_p50", median(walls), "s")
	m.set("job_s_tail", tailV, "s")
	m.set("records_per_s", float64(w.records)*float64(len(walls))/sum(walls), "1/s")
	m.set("setup_s", median(setupS), "s")
	m.set("peak_rss_mb", median(rss), "MB")
	m.set("cpu_s_per_job", sum(cpu)/float64(len(cpu)), "s")
	m.set("job_ok_ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), "ratio")
	rep.notes = append(rep.notes,
		fmt.Sprintf("job_s_tail is p%d of %d timed jobs (closed loop, one client)", pct, len(walls)),
		fmt.Sprintf("setup_s is the median of %d set-ups: %s", setups, fmtList(setupS)))
	return rep, nil
}

// runTraced measures the per-layer metrics. It brings up an untraced
// twin and a traced instance and alternates jobs between them, so the
// trace overhead is a paired comparison; the go.* process metrics are
// taken around the untraced jobs, so tracing's own allocations do not
// count.
func runTraced(w *workload, dur time.Duration, out string) (*report, error) {
	rep := &report{metrics: metricSet{}}
	plain, _, err := setUp(w, nil, nil, &rep.tally)
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	tr := trace.NewWall(trace.Options{Shards: 2, ShardCapacity: 1 << 16})
	rec := &recorder{}
	inst, _, err := setUp(w, tr, rec, &rep.tally)
	if err != nil {
		return nil, err
	}
	defer inst.Close()

	c0 := snapshot(inst.Runtime())
	var plainWalls, tracedWalls, allocs []float64
	var mallocs, gcs, pauses float64
	var jobs []jobLayers
	for i, start := 0, time.Now(); len(jobs) < minJobs || time.Since(start) < dur; i++ {
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				s, err := timedJob(w, plain, nil, nil, &rep.tally)
				if err != nil {
					return nil, err
				}
				plainWalls = append(plainWalls, s.wall)
				allocs = append(allocs, s.alloc)
				mallocs += s.mallocs
				gcs += s.gcs
				pauses += s.pauses
				continue
			}
			s, err := timedJob(w, inst, tr, rec, &rep.tally)
			if err != nil {
				return nil, err
			}
			if s.layers.busy > float64(w.slots)*s.layers.wall {
				return nil, fmt.Errorf("task busy %.4fs exceeds %d slots x job wall %.4fs", s.layers.busy, w.slots, s.layers.wall)
			}
			tracedWalls = append(tracedWalls, s.wall)
			jobs = append(jobs, s.layers)
		}
	}
	if err := checkSpill(w, snapshot(inst.Runtime()).sub(c0)); err != nil {
		return nil, err
	}

	m := rep.metrics
	layerMetrics(w, jobs, m)
	n := float64(len(plainWalls))
	m.set("go.alloc_mb", median(allocs)/1e6, "MB")
	m.set("go.mallocs_per_record", mallocs/(float64(w.records)*n), "count")
	m.set("go.gc_cycles", gcs/n, "count")
	m.set("go.gc_pause_ms", pauses/n/1e6, "ms")
	m.set("trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1, "ratio")
	m.set("trace.events", float64(tr.Len()), "count")
	m.set("trace.drops", float64(tr.Drops()), "count")
	m.set("baseline.single_thread_s", w.baselineS, "s")

	if err := writeTrace(tr, out); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d traced and %d untraced jobs alternated; Chrome trace in %s", len(jobs), len(plainWalls), out))
	if d := tr.Drops(); d > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("INCOMPLETE: the trace ring dropped %d events; the per-layer numbers and the Chrome trace miss part of the run", d))
	}
	return rep, nil
}

// writeTrace writes the Chrome trace and reads it back through the
// parser mrtrace uses, so a file mrtrace cannot summarize fails the run.
func writeTrace(tr *trace.Tracer, path string) error {
	events := tr.Events()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	back, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("re-read %s: %w", path, err)
	}
	if len(back) != len(events) {
		return fmt.Errorf("re-read %s: %d events, wrote %d", path, len(back), len(events))
	}
	if a := trace.Analyze(back, 0); len(a.Jobs) == 0 || a.TaskDur.N == 0 {
		return fmt.Errorf("trace %s holds no job or task spans", path)
	}
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
