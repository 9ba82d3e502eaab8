package main

import (
	"sort"
	"strings"
	"sync"

	"hpcmr/engine"
)

// recorder is the traced run's engine listener: it keeps the events of
// the job in flight until take hands them over.
type recorder struct {
	mu      sync.Mutex
	stages  []engine.StageMetrics
	tasks   []engine.TaskEvent
	fetches []engine.FetchEvent
}

func (r *recorder) listener() engine.Listener {
	return engine.FuncListener{
		StageEnd: func(m engine.StageMetrics) {
			r.mu.Lock()
			r.stages = append(r.stages, m)
			r.mu.Unlock()
		},
		TaskEnd: func(e engine.TaskEvent) {
			r.mu.Lock()
			r.tasks = append(r.tasks, e)
			r.mu.Unlock()
		},
		Fetch: func(e engine.FetchEvent) {
			r.mu.Lock()
			r.fetches = append(r.fetches, e)
			r.mu.Unlock()
		},
	}
}

// take returns and clears the recorded events.
func (r *recorder) take() ([]engine.StageMetrics, []engine.TaskEvent, []engine.FetchEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, t, f := r.stages, r.tasks, r.fetches
	r.stages, r.tasks, r.fetches = nil, nil, nil
	return s, t, f
}

// counters is a snapshot of the runtime's cumulative counters.
type counters struct {
	tasks, failures, local, speculations, shuffleRecords int64
	shuffleBytes                                         float64
	spills, spillBytes, restores, restoreBytes, encFail  int64
	peak                                                 int64
}

func snapshot(rt *engine.Runtime) counters {
	m := rt.Metrics()
	c := counters{
		tasks: m.TasksRun(), failures: m.TaskFailures(), local: m.LocalLaunches(),
		speculations: m.Speculations(), shuffleRecords: m.ShuffleRecords(), shuffleBytes: m.ShuffleBytes(),
	}
	if st, ok := rt.SpillStats(); ok {
		c.spills, c.spillBytes = st.Spills, st.SpillBytes
		c.restores, c.restoreBytes = st.Restores, st.RestoreBytes
		c.encFail, c.peak = st.EncodeFailures, st.Peak
	}
	return c
}

// sub is the per-job delta of the cumulative counters; peak stays the
// high-water mark.
func (c counters) sub(o counters) counters {
	return counters{
		tasks: c.tasks - o.tasks, failures: c.failures - o.failures, local: c.local - o.local,
		speculations: c.speculations - o.speculations, shuffleRecords: c.shuffleRecords - o.shuffleRecords,
		shuffleBytes: c.shuffleBytes - o.shuffleBytes,
		spills:       c.spills - o.spills, spillBytes: c.spillBytes - o.spillBytes,
		restores: c.restores - o.restores, restoreBytes: c.restoreBytes - o.restoreBytes,
		encFail: c.encFail - o.encFail, peak: c.peak,
	}
}

// fetchKey identifies one fetch. The distributed driver and
// FetchShuffleChunks may each report one fetch as a local and a remote
// event, both carrying the fetch's full duration.
type fetchKey struct{ shuffle, part, task, attempt int }

// fetchTotals sums a job's fetch events.
type fetchTotals struct {
	// seconds counts each fetch once; remoteSeconds is the time of the
	// fetches that pulled any remote bytes.
	seconds, remoteSeconds  float64
	localBytes, remoteBytes float64
}

func sumFetches(events []engine.FetchEvent) fetchTotals {
	type fetch struct {
		dur    float64
		remote bool
	}
	byKey := make(map[fetchKey]fetch)
	var t fetchTotals
	for _, e := range events {
		if e.Remote {
			t.remoteBytes += e.Bytes
		} else {
			t.localBytes += e.Bytes
		}
		k := fetchKey{e.Shuffle, e.ReducePart, e.TaskID, e.Attempt}
		f := byKey[k]
		f.dur = max(f.dur, e.Duration)
		f.remote = f.remote || e.Remote
		byKey[k] = f
	}
	for _, f := range byKey {
		t.seconds += f.dur
		if f.remote {
			t.remoteSeconds += f.dur
		}
	}
	return t
}

// stagePhase places a stage in the paper's phase split: "map" for the
// stages that write a shuffle (dist "<job>-map-<id>", rdd
// "shufflemap-<id>"), "step" for iterative supersteps, and "reduce" for
// the final gather (dist "<job>-reduce-<id>", rdd result stages).
func stagePhase(name string) string {
	switch {
	case strings.HasPrefix(name, "shufflemap"), strings.Contains(name, "-map-"):
		return "map"
	case strings.Contains(name, "-step"):
		return "step"
	default:
		return "reduce"
	}
}

// dispatchGaps returns, for each task attempt, the time from its end
// to the next attempt start on the same executor (seconds).
func dispatchGaps(tasks []engine.TaskEvent) []float64 {
	if len(tasks) == 0 {
		return nil
	}
	base := tasks[0].Start
	rel := func(e engine.TaskEvent) float64 { return e.Start.Sub(base).Seconds() }
	starts := map[int][]float64{}
	for _, e := range tasks {
		starts[e.Executor] = append(starts[e.Executor], rel(e))
	}
	for _, s := range starts {
		sort.Float64s(s)
	}
	var gaps []float64
	for _, e := range tasks {
		s := starts[e.Executor]
		end := rel(e) + e.Duration
		if i := sort.SearchFloat64s(s, end); i < len(s) {
			gaps = append(gaps, s[i]-end)
		}
	}
	return gaps
}

// jobLayers is what the traced run measures around one job.
type jobLayers struct {
	wall, busy, outside float64
	phase               map[string]float64
	stages              int
	taskMS, gapMS       []float64
	fetch               fetchTotals
	delta               counters
	resultMB, decodeS   float64
}

func measureLayers(wall float64, stages []engine.StageMetrics, tasks []engine.TaskEvent,
	fetches []engine.FetchEvent, delta counters, r result) jobLayers {
	j := jobLayers{wall: wall, phase: map[string]float64{}, stages: len(stages), delta: delta,
		fetch: sumFetches(fetches), resultMB: float64(len(r.raw)) / 1e6, decodeS: r.decodeS}
	inStages := 0.0
	for _, s := range stages {
		d := s.Duration.Seconds()
		j.phase[stagePhase(s.Name)] += d
		inStages += d
	}
	j.outside = wall - inStages
	for _, t := range tasks {
		j.busy += t.Duration
		j.taskMS = append(j.taskMS, t.Duration*1e3)
	}
	for _, g := range dispatchGaps(tasks) {
		j.gapMS = append(j.gapMS, g*1e3)
	}
	return j
}

// layerMetrics aggregates the traced jobs into the per-layer metrics:
// per-job quantities as medians over jobs, ratios from run totals.
func layerMetrics(w *workload, jobs []jobLayers, out metricSet) {
	var (
		perJob                           = map[string][]float64{}
		units                            = map[string]string{}
		taskMS, gapMS                    []float64
		busy, wall, fetchS, fetchMB      float64
		local, remote, tasksRun          float64
		distMB, distS                    float64
		localLaunch, shufRec, spills     float64
		restores, failed, specs, encFail float64
		peak                             int64
	)
	per := func(name, unit string, v float64) {
		perJob[name] = append(perJob[name], v)
		units[name] = unit
	}
	for _, j := range jobs {
		// dist.* describe the network shuffle; the in-process runtime's
		// "remote" split moves no bytes over a wire.
		dMB, dS := j.fetch.remoteBytes/1e6, j.fetch.remoteSeconds
		if !w.cluster {
			dMB, dS = 0, 0
		}
		per("engine.tasks", "count", float64(j.delta.tasks))
		per("engine.stages", "count", float64(j.stages))
		per("engine.outside_stage_s", "s", j.outside)
		per("engine.task_busy_s", "s", j.busy)
		per("engine.map_stage_s", "s", j.phase["map"])
		per("engine.step_stage_s", "s", j.phase["step"])
		per("engine.reduce_stage_s", "s", j.phase["reduce"])
		per("engine.fetch_s", "s", j.fetch.seconds)
		per("engine.shuffle_records", "count", float64(j.delta.shuffleRecords))
		per("engine.shuffle_mb", "MB", j.delta.shuffleBytes/1e6)
		per("spill.spills", "count", float64(j.delta.spills))
		per("spill.write_mb", "MB", float64(j.delta.spillBytes)/1e6)
		per("spill.restores", "count", float64(j.delta.restores))
		per("spill.read_mb", "MB", float64(j.delta.restoreBytes)/1e6)
		per("dist.remote_fetch_mb", "MB", dMB)
		per("dist.remote_fetch_s", "s", dS)
		per("dist.result_mb", "MB", j.resultMB)
		per("dist.result_decode_s", "s", j.decodeS)
		taskMS = append(taskMS, j.taskMS...)
		gapMS = append(gapMS, j.gapMS...)
		busy += j.busy
		wall += j.wall
		fetchS += j.fetch.seconds
		fetchMB += (j.fetch.localBytes + j.fetch.remoteBytes) / 1e6
		local += j.fetch.localBytes
		remote += j.fetch.remoteBytes
		distMB += dMB
		distS += dS
		tasksRun += float64(j.delta.tasks)
		localLaunch += float64(j.delta.local)
		shufRec += float64(j.delta.shuffleRecords)
		spills += float64(j.delta.spills)
		restores += float64(j.delta.restores)
		failed += float64(j.delta.failures)
		specs += float64(j.delta.speculations)
		encFail += float64(j.delta.encFail)
		peak = max(peak, j.delta.peak)
	}
	for name, vs := range perJob {
		out.set(name, median(vs), units[name])
	}
	_, taskTail, _ := tail(taskMS)
	out.set("engine.task_p50_ms", median(taskMS), "ms")
	out.set("engine.task_tail_ms", taskTail, "ms")
	out.set("engine.dispatch_gap_ms", median(gapMS), "ms")
	out.set("engine.slot_util", ratio(busy, float64(w.slots)*wall), "ratio")
	out.set("engine.fetch_mb_per_s", ratio(fetchMB, fetchS), "MB/s")
	out.set("engine.local_fetch_ratio", ratio(local, local+remote), "ratio")
	out.set("engine.failed_attempts", failed, "count")
	out.set("engine.speculations", specs, "count")
	out.set("sched.local_launch_ratio", ratio(localLaunch, tasksRun), "ratio")
	out.set("rdd.combine_ratio", ratio(shufRec, float64(w.records)*float64(len(jobs))), "ratio")
	out.set("spill.restores_per_spill", ratio(restores, spills), "ratio")
	out.set("spill.peak_resident_mb", float64(peak)/1e6, "MB")
	out.set("spill.encode_failures", encFail, "count")
	out.set("dist.remote_fetch_mb_per_s", ratio(distMB, distS), "MB/s")
}
