package perf

import (
	"fmt"
	"slices"
	"sync"

	"hpcmr/engine"
	"hpcmr/fault/chaostest"
	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/experiments"
	"hpcmr/internal/sched"
	"hpcmr/internal/simclock"
	"hpcmr/internal/spill"
	"hpcmr/internal/workload"
	"hpcmr/rdd"
)

// kernelScale sizes the simclock churn scenario: full is the headline
// BENCH_kernel scale (peak >4000 concurrent flows), short a quarter of
// it so the brute-force oracle stays affordable in CI.
func kernelScale(sc Scale) simclock.ChurnScale {
	if sc.Short {
		return simclock.ChurnScale{NRes: 100, NFlows: 2000, CapEvts: 200}
	}
	return simclock.KernelChurnScale
}

func engineSpec(sc Scale, traced bool) EngineWorkloadSpec {
	spec := EngineWorkloadSpec{Tasks: 1024, Executors: 4, Cores: 2, WorkUS: 100, Traced: traced}
	if sc.Short {
		spec.Tasks, spec.WorkUS = 256, 40
	}
	return spec
}

func expOptions(sc Scale) experiments.Options {
	return experiments.Options{Quick: sc.Short, Seed: 1}
}

func init() {
	mustRegister(Scenario{
		Name: "kernel/churn-incremental",
		Desc: "incremental fluid kernel on the deterministic flow-churn scenario",
		Run: func(sc Scale) (Extras, error) {
			completed, peak := simclock.RunKernelChurn(false, kernelScale(sc))
			return Extras{"completed_flows": float64(completed), "peak_concurrent_flows": float64(peak)}, nil
		},
	})
	mustRegister(Scenario{
		Name: "kernel/churn-brute",
		Desc: "recompute-the-world fluid oracle on the same churn scenario (speedup denominator)",
		Run: func(sc Scale) (Extras, error) {
			completed, peak := simclock.RunKernelChurn(true, kernelScale(sc))
			return Extras{"completed_flows": float64(completed), "peak_concurrent_flows": float64(peak)}, nil
		},
	})
	mustRegister(Scenario{
		Name: "engine/many-short-tasks",
		Desc: "runtime dispatch throughput: many ~100µs map tasks through the executor pool",
		Run: func(sc Scale) (Extras, error) {
			spec := engineSpec(sc, false)
			secs, _, err := RunEngineWorkload(spec)
			if err != nil {
				return nil, err
			}
			return Extras{"tasks": float64(spec.Tasks), "tasks_per_second": float64(spec.Tasks) / secs}, nil
		},
	})
	mustRegister(Scenario{
		Name: "engine/shuffle-heavy",
		Desc: "shuffle-dominated job: KeyBy + ReduceByKey over the in-memory shuffle store",
		Run:  runShuffleHeavy,
	})
	mustRegister(Scenario{
		Name: "engine/shufflestore-contention",
		Desc: "concurrent typed-chunk PutChunksFrom/FetchChunks against the sharded ShuffleStore from many goroutines",
		Run:  runShuffleStoreContention,
	})
	mustRegister(Scenario{
		Name: "engine/spill-4x",
		Desc: "memory-bounded shuffle: working set 4x the budget, LRU map outputs spill to disk and restore during reduce",
		Run:  runSpill4x,
	})
	mustRegister(Scenario{
		Name: "engine/agg-lowcard",
		Desc: "aggregation over few keys with the map-side combiner (one record per key per map task shuffled)",
		Run:  func(sc Scale) (Extras, error) { return runAgg(sc, aggLowCard, false) },
	})
	mustRegister(Scenario{
		Name: "engine/agg-lowcard-nocombine",
		Desc: "the same low-cardinality aggregation with map-side combining disabled (A/B baseline)",
		Run:  func(sc Scale) (Extras, error) { return runAgg(sc, aggLowCard, true) },
	})
	mustRegister(Scenario{
		Name: "engine/agg-highcard",
		Desc: "aggregation over all-distinct keys with the combiner on — where map-side combining cannot win",
		Run:  func(sc Scale) (Extras, error) { return runAgg(sc, aggDistinct, false) },
	})
	mustRegister(Scenario{
		Name: "engine/agg-highcard-nocombine",
		Desc: "the all-distinct-keys aggregation with combining disabled (overhead denominator)",
		Run:  func(sc Scale) (Extras, error) { return runAgg(sc, aggDistinct, true) },
	})
	mustRegister(Scenario{
		Name: "trace/capture",
		Desc: "the many-short-tasks workload with full trace capture (overhead numerator)",
		Run: func(sc Scale) (Extras, error) {
			spec := engineSpec(sc, true)
			secs, events, err := RunEngineWorkload(spec)
			if err != nil {
				return nil, err
			}
			if events < spec.Tasks {
				return nil, fmt.Errorf("traced run captured %d events for %d tasks", events, spec.Tasks)
			}
			return Extras{"tasks": float64(spec.Tasks), "events": float64(events),
				"tasks_per_second": float64(spec.Tasks) / secs}, nil
		},
	})
	mustRegister(Scenario{
		Name: "chaos/recovery",
		Desc: "chaos trial wall time: seeded fault plan + golden run + invariant checks on the simulator",
		Run: func(sc Scale) (Extras, error) {
			cfg := chaostest.Config{}
			seeds := []int64{7}
			if !sc.Short {
				seeds = []int64{7, 8, 9, 10}
			}
			var events, planEvents int
			for _, seed := range seeds {
				rep, err := chaostest.RunSeed(cfg, seed)
				if err != nil {
					return nil, err
				}
				if rep.Failed() {
					return nil, fmt.Errorf("seed %d violated invariants: %s", seed, rep.Summary())
				}
				events += len(rep.Events)
				planEvents += len(rep.Plan.Events)
			}
			return Extras{"trials": float64(len(seeds)), "trace_events": float64(events),
				"plan_events": float64(planEvents)}, nil
		},
	})
	mustRegister(Scenario{
		Name: "experiments/fig7-shuffle-placement",
		Desc: "end-to-end Fig 7 point: GroupBy with HDFS-RAMDisk vs Lustre-shared intermediate data",
		Run:  runFig7Placement,
	})
	mustRegister(Scenario{
		Name: "experiments/fig13-elb",
		Desc: "end-to-end Fig 13a point: skewed SSD rig, Spark baseline vs ELB map policy",
		Run:  runFig13ELB,
	})
}

// runShuffleHeavy pushes N keyed values through a full map->shuffle->
// reduce job on the real engine.
func runShuffleHeavy(sc Scale) (Extras, error) {
	n, parts, reduceParts := int64(400_000), 16, 32
	if sc.Short {
		n = 100_000
	}
	ctx, err := rdd.NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2})
	if err != nil {
		return nil, err
	}
	defer ctx.Stop()
	pairs := rdd.KeyBy(rdd.Range(ctx, 0, n, parts), func(i int64) int64 { return i % 4096 })
	reduced := rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, reduceParts)
	cnt, err := reduced.Count()
	if err != nil {
		return nil, err
	}
	if cnt != 4096 {
		return nil, fmt.Errorf("shuffle-heavy produced %d keys, want 4096", cnt)
	}
	m := ctx.Runtime().Metrics()
	return Extras{
		"records":               float64(n),
		"shuffle_records_moved": float64(m.ShuffleRecords()),
		"shuffle_bytes_moved":   m.ShuffleBytes(),
	}, nil
}

// Key cardinalities for the engine/agg-* scenarios: aggLowCard is the
// combiner's best case (each map task collapses thousands of records to
// at most 128), aggDistinct its worst (the hash-aggregation pass runs
// but nothing merges).
const (
	aggLowCard  = 128
	aggDistinct = 0 // sentinel: every record its own key
)

// runAgg is the shared body of the engine/agg-* scenarios: a keyed sum
// on the real engine with map-side combining on or off, exporting the
// shuffle volume the run actually moved so the perf gate can judge
// movement alongside wall time and allocations.
func runAgg(sc Scale, cardinality int64, disableCombine bool) (Extras, error) {
	n, parts, reduceParts := int64(400_000), 16, 32
	if sc.Short {
		n = 100_000
	}
	wantKeys := cardinality
	if cardinality == aggDistinct {
		wantKeys = n
	}
	ctx, err := rdd.NewContextWithOptions(
		engine.Config{Executors: 4, CoresPerExecutor: 2},
		rdd.Options{DisableMapSideCombine: disableCombine})
	if err != nil {
		return nil, err
	}
	defer ctx.Stop()
	pairs := rdd.KeyBy(rdd.Range(ctx, 0, n, parts), func(i int64) int64 {
		if cardinality == aggDistinct {
			return i
		}
		return i % cardinality
	})
	reduced := rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, reduceParts)
	cnt, err := reduced.Count()
	if err != nil {
		return nil, err
	}
	if cnt != wantKeys {
		return nil, fmt.Errorf("aggregation produced %d keys, want %d", cnt, wantKeys)
	}
	m := ctx.Runtime().Metrics()
	return Extras{
		"records":               float64(n),
		"shuffle_records_moved": float64(m.ShuffleRecords()),
		"shuffle_bytes_moved":   m.ShuffleBytes(),
	}, nil
}

// runSpill4x runs a shuffle whose working set is four times the memory
// budget, so the two-level store must spill three quarters of the map
// outputs and read them back during reduce. One executor with one core
// keeps the LRU order — and therefore the spill/restore counters the
// gate judges — deterministic. The run itself asserts the memory bound
// (stabilized peak at or under budget) and byte-identical results
// against an unbounded reference run.
func runSpill4x(sc Scale) (Extras, error) {
	n := int64(400_000)
	if sc.Short {
		n = 100_000
	}
	// Combining is disabled so every record crosses the shuffle: with 16
	// map partitions of 16-byte pairs, each map output accounts exactly n
	// bytes and the working set is 16n. A budget of 4n holds exactly four
	// partitions resident.
	const parts, reduceParts = 16, 8
	budget := 4 * n

	run := func(budget int64) ([]rdd.Pair[int64, int64], spill.Stats, bool, error) {
		ctx, err := rdd.NewContextWithOptions(
			engine.Config{Executors: 1, CoresPerExecutor: 1, MemoryBudget: budget},
			rdd.Options{DisableMapSideCombine: true})
		if err != nil {
			return nil, spill.Stats{}, false, err
		}
		defer ctx.Stop()
		pairs := rdd.KeyBy(rdd.Range(ctx, 0, n, parts), func(i int64) int64 { return i % 4096 })
		sums, err := rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, reduceParts).Collect()
		if err != nil {
			return nil, spill.Stats{}, false, err
		}
		slices.SortFunc(sums, func(a, b rdd.Pair[int64, int64]) int {
			return int(a.Key - b.Key)
		})
		st, ok := ctx.Runtime().SpillStats()
		return sums, st, ok, nil
	}

	ref, _, _, err := run(0)
	if err != nil {
		return nil, err
	}
	sums, st, ok, err := run(budget)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(sums, ref) {
		return nil, fmt.Errorf("budgeted sums diverge from unbounded run")
	}
	if !ok {
		return nil, fmt.Errorf("budgeted run reports no spill stats")
	}
	if st.Peak > budget {
		return nil, fmt.Errorf("stabilized resident peak %d exceeds budget %d", st.Peak, budget)
	}
	if st.Spills == 0 || st.Restores == 0 {
		return nil, fmt.Errorf("4x working set moved no spill traffic: %+v", st)
	}
	if st.EncodeFailures != 0 {
		return nil, fmt.Errorf("%d spill encode failures", st.EncodeFailures)
	}
	return Extras{
		"records":             float64(n),
		"budget_bytes":        float64(budget),
		"spill_bytes_written": float64(st.SpillBytes),
		"spill_restores":      float64(st.Restores),
	}, nil
}

// runShuffleStoreContention hammers the sharded ShuffleStore directly:
// G writers each publish a map partition into S shuffles, then G
// readers fetch every reduce partition — the lock-sharding hot path
// without the task-scheduling envelope around it.
func runShuffleStoreContention(sc Scale) (Extras, error) {
	rounds, shuffles, writers, reduceParts, valsPerBucket := 8, 8, 8, 32, 64
	if sc.Short {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		store := engine.NewShuffleStore()
		ids := make([]int, shuffles)
		for i := range ids {
			ids[i] = store.Register(writers, reduceParts)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, id := range ids {
					buckets := make([]any, reduceParts)
					for r := range buckets {
						vals := make([]int, valsPerBucket)
						for v := range vals {
							vals[v] = w*1000 + v
						}
						buckets[r] = vals
					}
					if err := store.PutChunksFrom(id, w, w, buckets); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := ids[w%shuffles]
				for r := 0; r < reduceParts; r++ {
					chunks, err := store.FetchChunks(id, r)
					if err != nil {
						errs <- err
						return
					}
					got := 0
					for _, ch := range chunks {
						got += len(ch.([]int))
					}
					if got != writers*valsPerBucket {
						errs <- fmt.Errorf("fetch got %d values, want %d", got, writers*valsPerBucket)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	return Extras{
		"rounds":  float64(rounds),
		"fetches": float64(rounds * writers * reduceParts),
		"puts":    float64(rounds * writers * shuffles),
	}, nil
}

// runFig7Placement reproduces one Fig 7 data point end to end: the
// same GroupBy with intermediate data on the data-centric store versus
// the Lustre-shared scratch whose shuffle phase the paper shows
// collapsing. Timing measures the simulator; extras carry the modeled
// claim (the shared/local job-time ratio).
func runFig7Placement(sc Scale) (Extras, error) {
	o := expOptions(sc)
	size := 400e9 * o.DataScale()
	split := o.Split(256e6)

	local := experiments.NewRig(o, experiments.RigSpec{Device: cluster.RAMDiskDevice})
	lspec := workload.GroupBy(size, split)
	lspec.Store = core.StoreLocal
	lres := local.MustRun(lspec, core.Policies{})

	shared := experiments.NewRig(o, experiments.RigSpec{Device: cluster.NoLocalDevice})
	sspec := workload.GroupBy(size, split)
	sspec.Store = core.StoreLustreShared
	sres := shared.MustRun(sspec, core.Policies{})

	if sres.JobTime <= lres.JobTime {
		return nil, fmt.Errorf("lustre-shared (%.1fs) not slower than local (%.1fs)",
			sres.JobTime, lres.JobTime)
	}
	return Extras{
		"local_sim_s":       lres.JobTime,
		"shared_sim_s":      sres.JobTime,
		"shared_over_local": sres.JobTime / lres.JobTime,
	}, nil
}

// runFig13ELB reproduces one Fig 13a data point end to end: GroupBy on
// the skewed SSD rig with and without the paper's Enhanced Load
// Balancer. Extras carry the modeled improvement the paper quantifies
// (~26% storage-bound).
func runFig13ELB(sc Scale) (Extras, error) {
	o := expOptions(sc)
	size := 1000e9 * o.DataScale()
	split := o.Split(256e6)
	spec := experiments.RigSpec{Device: cluster.SSDDevice, Skew: true, SkewSigma: 0.22}

	base := experiments.NewRig(o, spec)
	bres := base.MustRun(workload.GroupBy(size, split), core.Policies{})

	elbRig := experiments.NewRig(o, spec)
	eres := elbRig.MustRun(workload.GroupBy(size, split),
		core.Policies{Map: sched.NewELB(len(elbRig.Cluster.Nodes), 0.25)})

	if eres.JobTime >= bres.JobTime {
		return nil, fmt.Errorf("ELB (%.1fs) not faster than baseline (%.1fs)",
			eres.JobTime, bres.JobTime)
	}
	return Extras{
		"spark_sim_s":     bres.JobTime,
		"elb_sim_s":       eres.JobTime,
		"elb_improvement": 1 - eres.JobTime/bres.JobTime,
	}, nil
}
