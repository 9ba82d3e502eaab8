package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"hpcmr/dist"
	"hpcmr/engine"
	"hpcmr/rdd"
)

// One fetch reported twice — a local and a remote event with the full
// duration each, as the dist driver and FetchShuffleChunks emit them —
// counts its time once while its bytes still split by path.
func TestFetchTimeCountedOncePerFetch(t *testing.T) {
	t0 := time.Now()
	events := []engine.FetchEvent{
		{Shuffle: 3, ReducePart: 1, TaskID: 1, Attempt: 0, Start: t0, Duration: 0.2, Bytes: 100},
		{Shuffle: 3, ReducePart: 1, TaskID: 1, Attempt: 0, Start: t0, Duration: 0.2, Bytes: 300, Remote: true},
		{Shuffle: 3, ReducePart: 0, TaskID: 0, Attempt: 0, Start: t0, Duration: 0.1, Bytes: 50},
		// A retried attempt of the same task is a different fetch.
		{Shuffle: 3, ReducePart: 1, TaskID: 1, Attempt: 1, Start: t0, Duration: 0.05, Bytes: 10, Remote: true},
	}
	got := sumFetches(events)
	want := fetchTotals{seconds: 0.35, remoteSeconds: 0.25, localBytes: 150, remoteBytes: 310}
	if math.Abs(got.seconds-want.seconds) > 1e-12 || math.Abs(got.remoteSeconds-want.remoteSeconds) > 1e-12 ||
		got.localBytes != want.localBytes || got.remoteBytes != want.remoteBytes {
		t.Fatalf("sumFetches = %+v, want %+v", got, want)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 75 || v != 29 {
		t.Fatalf("tail of 0..39 = p%d %v %v, want p75 29", pct, v, ok)
	}
	pct, v, ok = tail(xs[:11])
	if !ok || v != 29 {
		t.Fatalf("tail of 11 samples = p%d %v %v, want the smallest (29)", pct, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples must not be defined")
	}
}

func TestStagePhase(t *testing.T) {
	for name, want := range map[string]string{
		"keyed-sum-map-4": "map", "pagerank-step3-9": "step", "pagerank-reduce-12": "reduce",
		"shufflemap-7": "map", "collect": "reduce",
	} {
		if got := stagePhase(name); got != want {
			t.Errorf("stagePhase(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestDispatchGaps(t *testing.T) {
	t0 := time.Now()
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	gaps := dispatchGaps([]engine.TaskEvent{
		{Executor: 0, Start: ms(0), Duration: 0.010},
		{Executor: 0, Start: ms(12), Duration: 0.010},
		{Executor: 1, Start: ms(5), Duration: 0.001},
		{Executor: 1, Start: ms(9), Duration: 0.001},
	})
	slices.Sort(gaps)
	want := []float64{0.002, 0.003}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if math.Abs(gaps[i]-want[i]) > 1e-9 {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
}

// Every output check accepts the right answer and fires on a corrupted
// copy of it.
func TestChecksFireOnCorruptOutput(t *testing.T) {
	t.Run("keyed-sum", func(t *testing.T) {
		kvs := make([]dist.KV, 100)
		for i := range kvs {
			kvs[i] = dist.KV{K: int64(i), V: int64(i)}
		}
		if err := checkKeyedSum(kvs, 100); err != nil {
			t.Fatal(err)
		}
		bad := slices.Clone(kvs)
		bad[42].V++
		if checkKeyedSum(bad, 100) == nil {
			t.Error("wrong sum passed")
		}
		if checkKeyedSum(kvs[:99], 100) == nil {
			t.Error("missing key passed")
		}
	})
	t.Run("wordcount", func(t *testing.T) {
		want := countWords([]byte("a b a c\nc a\n"))
		got := []rdd.Pair[string, int64]{{Key: "c", Value: 2}, {Key: "a", Value: 3}, {Key: "b", Value: 1}}
		if err := checkCounts(got, want); err != nil {
			t.Fatal(err)
		}
		bad := slices.Clone(got)
		bad[1].Value = 4
		if checkCounts(bad, want) == nil {
			t.Error("wrong count passed")
		}
		bad = slices.Clone(got)
		bad[2] = bad[0]
		if checkCounts(bad, want) == nil {
			t.Error("duplicated word passed")
		}
	})
	t.Run("aggregate", func(t *testing.T) {
		ref := []rdd.Pair[int64, int64]{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 5, Value: 7}}
		got := []rdd.Pair[int64, int64]{ref[2], ref[0], ref[1]}
		if err := checkSums(got, ref); err != nil {
			t.Fatal(err)
		}
		got[0].Value++
		if checkSums(got, ref) == nil {
			t.Error("wrong sum passed")
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		want := serialPagerank(64, 8, 3)
		kvs := make([]dist.KV, len(want))
		for i, v := range want {
			kvs[i] = dist.KV{K: int64(i), V: v}
		}
		raw := []byte("first")
		if err := checkPagerank(kvs, want, raw, raw); err != nil {
			t.Fatal(err)
		}
		bad := slices.Clone(kvs)
		bad[3].V += 1000
		bad[4].V -= 1000
		if checkPagerank(bad, want, nil, nil) == nil {
			t.Error("mass-preserving rank swap passed")
		}
		if checkPagerank(kvs[1:], want, nil, nil) == nil {
			t.Error("missing node passed")
		}
		if checkPagerank(kvs, want, raw, []byte("other")) == nil {
			t.Error("bytes differing from the first job passed")
		}
	})
}

// The serial pagerank reference agrees with the real job on a small
// cluster, so a pagerank-dist mismatch points at the runtime.
func TestSerialPagerankMatchesCluster(t *testing.T) {
	lc, err := dist.StartLocal(dist.LocalConfig{Executors: 2, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	const nodes, steps = 2048, 6
	raw, err := lc.Run(dist.JobSpec{Job: "pagerank", ReduceParts: prBuckets, Records: nodes, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := dist.DecodeKVs(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPagerank(kvs, serialPagerank(nodes, prBuckets, steps), nil, raw); err != nil {
		t.Fatal(err)
	}
}
