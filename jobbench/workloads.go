package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hpcmr/dist"
	"hpcmr/engine"
	"hpcmr/rdd"
	"hpcmr/trace"
)

// result is one job's output as the client holds it after the call.
type result struct {
	out any
	// raw is the encoded result of a cluster job, before decoding.
	raw []byte
	// decodeS is the time spent in dist.DecodeKVs (cluster jobs only).
	decodeS float64
}

// instance is one brought-up system under test: a LocalCluster or an
// rdd Context.
type instance interface {
	Runtime() *engine.Runtime
	// Job runs one job and returns its output; tr (nil when untraced)
	// receives the result-decode span.
	Job(tr *trace.Tracer) (result, error)
	// Release frees what the finished job left in the runtime. It is
	// called between jobs, outside the timed window.
	Release()
	Close()
}

// workload is a generated input plus everything needed to run and
// judge jobs over it.
type workload struct {
	name string
	// slots is executors x cores of the system under test.
	slots int
	// cluster marks the LocalCluster workloads, whose "remote" fetches
	// cross loopback TCP.
	cluster bool
	// records is the input records one job consumes (words for
	// wordcount-mem).
	records int64
	// budget is the engine memory budget in bytes (0 = unbounded).
	budget int64
	// baselineS is the single-goroutine reference computation's time.
	baselineS float64
	// start brings up a fresh instance; tr (nil when untraced) is wired
	// into the engine's decision audit where the instance exposes it.
	start func(tr *trace.Tracer) (instance, error)
	// check compares one job's output with the independent reference.
	check func(result) error
}

var workloadNames = []string{"shuffle-dist", "pagerank-dist", "wordcount-mem", "aggregate-spill"}

// prepare generates the workload's input from seed under dir and
// computes its reference output. Nothing here is part of any timed
// metric except baselineS.
func prepare(name string, seed int64, slots int, dir string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "shuffle-dist":
		return shuffleDist(rng, slots), nil
	case "pagerank-dist":
		return pagerankDist(rng, slots), nil
	case "wordcount-mem":
		return wordcountMem(rng, slots, dir)
	case "aggregate-spill":
		return aggregateSpill(rng, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// ---- cluster workloads ----

// clusterInstance is a LocalCluster running one named job spec.
type clusterInstance struct {
	lc   *dist.LocalCluster
	spec dist.JobSpec
}

func startCluster(slots int, spec dist.JobSpec) (instance, error) {
	lc, err := dist.StartLocal(dist.LocalConfig{Executors: slots, CoresPerExecutor: 1})
	if err != nil {
		return nil, err
	}
	return &clusterInstance{lc: lc, spec: spec}, nil
}

func (c *clusterInstance) Runtime() *engine.Runtime { return c.lc.Driver.Runtime() }
func (c *clusterInstance) Release()                 {}
func (c *clusterInstance) Close()                   { c.lc.Close() }

func (c *clusterInstance) Job(tr *trace.Tracer) (result, error) {
	raw, err := c.lc.Run(c.spec)
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	kvs, err := dist.DecodeKVs(raw)
	d := time.Since(t0).Seconds()
	tr.Emit(trace.Event{TS: tr.Since(t0), Dur: d, Kind: trace.Span, Cat: trace.CatStage,
		Name: "result-decode", Node: -1, Peer: -1, Task: -1, Bytes: float64(len(raw))})
	if err != nil {
		return result{}, err
	}
	return result{out: kvs, raw: raw, decodeS: d}, nil
}

// shuffleDist is keyed-sum with every key distinct, so each record
// crosses the shuffle and key k sums to exactly k.
func shuffleDist(rng *rand.Rand, slots int) *workload {
	n := 400_000 + rng.Int63n(1024)
	spec := dist.JobSpec{Job: "keyed-sum", Records: n, Keys: n, MapParts: 2 * slots, ReduceParts: slots}
	t0 := time.Now()
	sums := make(map[int64]int64, n)
	for i := int64(0); i < n; i++ {
		sums[i%n] += i
	}
	baseline := time.Since(t0).Seconds()
	return &workload{
		name: "shuffle-dist", slots: slots, cluster: true, records: n, baselineS: baseline,
		start: func(*trace.Tracer) (instance, error) { return startCluster(slots, spec) },
		check: func(r result) error { return checkKeyedSum(r.out.([]dist.KV), n) },
	}
}

// checkKeyedSum verifies the closed form of keyed-sum with Keys =
// Records = n: keys 0..n-1 in order, each summing to itself.
func checkKeyedSum(kvs []dist.KV, n int64) error {
	if int64(len(kvs)) != n {
		return fmt.Errorf("keyed-sum returned %d keys, want %d", len(kvs), n)
	}
	for i, kv := range kvs {
		if kv.K != int64(i) || kv.V != int64(i) {
			return fmt.Errorf("keyed-sum entry %d is %d=%d, want %d=%d", i, kv.K, kv.V, i, i)
		}
	}
	return nil
}

// prBuckets is pagerank-dist's bucket count: more buckets than slots,
// so placement is a scheduler decision and locality can matter.
const prBuckets = 8

// pagerankDist is the community-graph pagerank with the cluster's
// default shuffle-locality placement.
func pagerankDist(rng *rand.Rand, slots int) *workload {
	nodes := 65_536 + prBuckets*rng.Int63n(64)
	spec := dist.JobSpec{Job: "pagerank", ReduceParts: prBuckets, Records: nodes, Steps: 6}
	t0 := time.Now()
	want := serialPagerank(nodes, prBuckets, spec.Steps)
	baseline := time.Since(t0).Seconds()
	var first []byte
	return &workload{
		name: "pagerank-dist", slots: slots, cluster: true, records: nodes, baselineS: baseline,
		start: func(*trace.Tracer) (instance, error) { return startCluster(slots, spec) },
		check: func(r result) error {
			if err := checkPagerank(r.out.([]dist.KV), want, first, r.raw); err != nil {
				return err
			}
			if first == nil {
				first = r.raw
			}
			return nil
		},
	}
}

// serialPagerank recomputes the dist pagerank job's graph and
// recurrence on one goroutine: node n has out-edges n + k*buckets
// (k = 1..7) and, when n%5 == 0, n+1 (all mod nodes); ranks start
// uniform and take steps applications of
// rank'(n) = 0.15/N + 0.85 * sum over in-edges of rank(m)/deg(m).
// Ranks are returned scaled to integers by 1e12, as the job reports
// them.
func serialPagerank(nodes int64, buckets, steps int) []int64 {
	const damping = 0.85
	rank := make([]float64, nodes)
	for n := range rank {
		rank[n] = 1 / float64(nodes)
	}
	contrib := make([]float64, nodes)
	for s := 0; s < steps; s++ {
		clear(contrib)
		for n := int64(0); n < nodes; n++ {
			deg := 7.0
			if n%5 == 0 {
				deg = 8
				contrib[(n+1)%nodes] += rank[n] / deg
			}
			for k := int64(1); k <= 7; k++ {
				contrib[(n+k*int64(buckets))%nodes] += rank[n] / deg
			}
		}
		for n := range rank {
			rank[n] = (1-damping)/float64(nodes) + damping*contrib[n]
		}
	}
	out := make([]int64, nodes)
	for n, r := range rank {
		out[n] = int64(math.Round(r * 1e12))
	}
	return out
}

// checkPagerank verifies node count, rank mass (every node has
// out-edges, so the ranks sum to 1), agreement with the serial
// reference up to float summation order, and byte identity with the
// first job's encoded result when one is given.
func checkPagerank(kvs []dist.KV, want []int64, first, raw []byte) error {
	if len(kvs) != len(want) {
		return fmt.Errorf("pagerank returned %d nodes, want %d", len(kvs), len(want))
	}
	var mass int64
	for i, kv := range kvs {
		if kv.K != int64(i) {
			return fmt.Errorf("pagerank entry %d is node %d", i, kv.K)
		}
		if d := kv.V - want[i]; d < -1 || d > 1 {
			return fmt.Errorf("pagerank node %d rank %d, serial reference %d", i, kv.V, want[i])
		}
		mass += kv.V
	}
	if d := mass - 1e12; d < -int64(len(kvs)) || d > int64(len(kvs)) {
		return fmt.Errorf("pagerank rank mass %d, want 1e12 within %d", mass, len(kvs))
	}
	if first != nil && !bytes.Equal(raw, first) {
		return fmt.Errorf("pagerank result differs from the first job's bytes")
	}
	return nil
}

// ---- in-process rdd workloads ----

// contextInstance is an rdd Context running one job body.
type contextInstance struct {
	ctx *rdd.Context
	job func(*rdd.Context) (any, error)
	// dropped is the highest shuffle ID already released.
	dropped int
}

func (c *contextInstance) Runtime() *engine.Runtime { return c.ctx.Runtime() }
func (c *contextInstance) Close()                   { c.ctx.Stop() }

func (c *contextInstance) Job(*trace.Tracer) (result, error) {
	out, err := c.job(c.ctx)
	return result{out: out}, err
}

// Release drops every shuffle the finished job registered. An rdd
// Context keeps shuffle output for its lifetime, so without this each
// job's shuffle would stay resident (or on disk) and later jobs would
// run against a growing heap. Shuffle IDs are allocated upward from 1;
// the scan is bounded so an ID scheme without that property leaks
// shuffles instead of hanging.
func (c *contextInstance) Release() {
	st := c.ctx.Runtime().Shuffle()
	for limit := c.dropped + 1<<16; st.Len() > 0 && c.dropped < limit; {
		c.dropped++
		st.Drop(c.dropped)
	}
}

func add(a, b int64) int64 { return a + b }

// wordcountMem counts a seeded Zipf corpus with TextFile -> FlatMap ->
// ReduceByKey on an unbounded in-process context.
func wordcountMem(rng *rand.Rand, slots int, dir string) (*workload, error) {
	path := filepath.Join(dir, "corpus.txt")
	words, err := writeCorpus(rng, path, 200_000, 12)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// The reference count is timed three times; the median is the
	// single-thread speed-of-light figure.
	var want map[string]int64
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		want = countWords(data)
		times = append(times, time.Since(t0).Seconds())
	}
	job := func(ctx *rdd.Context) (any, error) {
		lines, err := rdd.TextFile(ctx, path, 4*slots)
		if err != nil {
			return nil, err
		}
		pairs := rdd.Map(rdd.FlatMap(lines, strings.Fields), func(w string) rdd.Pair[string, int64] {
			return rdd.Pair[string, int64]{Key: w, Value: 1}
		})
		return rdd.ReduceByKey(pairs, add, 2*slots).Collect()
	}
	return &workload{
		name: "wordcount-mem", slots: slots, records: words, baselineS: median(times),
		start: func(tr *trace.Tracer) (instance, error) {
			ctx, err := rdd.NewContextWithOptions(engine.Config{
				Executors: slots, CoresPerExecutor: 1, SchedAudit: trace.SchedAudit(tr),
			}, rdd.Options{})
			if err != nil {
				return nil, err
			}
			return &contextInstance{ctx: ctx, job: job}, nil
		},
		check: func(r result) error { return checkCounts(r.out.([]rdd.Pair[string, int64]), want) },
	}, nil
}

// writeCorpus writes lines of perLine words drawn from a Zipf
// distribution over a seeded vocabulary, and returns the word count.
func writeCorpus(rng *rand.Rand, path string, lines, perLine int) (int64, error) {
	const vocab = 50_000
	words := make([]string, 0, vocab)
	seen := make(map[string]bool, vocab)
	letters := []byte("abcdefghijklmnopqrstuvwxyz")
	for len(words) < vocab {
		b := make([]byte, 3+rng.Intn(8))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, vocab-1)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	for l := 0; l < lines; l++ {
		for i := 0; i < perLine; i++ {
			if i > 0 {
				w.WriteByte(' ')
			}
			w.WriteString(words[zipf.Uint64()])
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return int64(lines * perLine), nil
}

// countWords is the plain single-goroutine word count.
func countWords(data []byte) map[string]int64 {
	counts := make(map[string]int64)
	for _, w := range strings.Fields(string(data)) {
		counts[w]++
	}
	return counts
}

// checkCounts verifies a collected word count against the reference:
// every word exactly once, with the reference count.
func checkCounts(got []rdd.Pair[string, int64], want map[string]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("wordcount returned %d words, want %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		if seen[p.Key] {
			return fmt.Errorf("wordcount returned %q twice", p.Key)
		}
		seen[p.Key] = true
		if want[p.Key] != p.Value {
			return fmt.Errorf("wordcount %q = %d, want %d", p.Key, p.Value, want[p.Key])
		}
	}
	return nil
}

// Sizing of aggregate-spill: 16 map outputs of aggRecords/16 pairs at
// 16 bytes each; the budget holds a quarter of them.
const (
	aggRecords     = 1_000_000
	aggKeys        = 1 << 16
	aggMapParts    = 16
	aggReduceParts = 8
	aggBudget      = aggRecords * 16 / 4
)

// aggregateSpill sums seeded (key, value) pairs with map-side
// combining off on one executor with one core, under a memory budget a
// quarter of the shuffle's working set. One slot makes the LRU order,
// and so the spill counts, repeat exactly.
func aggregateSpill(rng *rand.Rand, dir string) (*workload, error) {
	data := make([]rdd.Pair[int64, int64], aggRecords)
	for i := range data {
		data[i] = rdd.Pair[int64, int64]{Key: rng.Int63n(aggKeys), Value: rng.Int63n(1 << 20)}
	}
	job := func(ctx *rdd.Context) (any, error) {
		return rdd.ReduceByKey(rdd.Parallelize(ctx, data, aggMapParts), add, aggReduceParts).Collect()
	}
	newCtx := func(budget int64, spillDir string, tr *trace.Tracer) (*rdd.Context, error) {
		return rdd.NewContextWithOptions(engine.Config{
			Executors: 1, CoresPerExecutor: 1, MemoryBudget: budget, SpillDir: spillDir,
			SchedAudit: trace.SchedAudit(tr),
		}, rdd.Options{DisableMapSideCombine: true})
	}

	// Reference: the same job with an unbounded budget, cross-checked
	// against a single-goroutine sum (whose time is the baseline).
	ctx, err := newCtx(0, "", nil)
	if err != nil {
		return nil, err
	}
	out, err := job(ctx)
	ctx.Stop()
	if err != nil {
		return nil, fmt.Errorf("unbounded reference run: %w", err)
	}
	ref := sortedPairs(out.([]rdd.Pair[int64, int64]))
	t0 := time.Now()
	sums := make(map[int64]int64, aggKeys)
	for _, p := range data {
		sums[p.Key] += p.Value
	}
	baseline := time.Since(t0).Seconds()
	serial := make([]rdd.Pair[int64, int64], 0, len(sums))
	for k, v := range sums {
		serial = append(serial, rdd.Pair[int64, int64]{Key: k, Value: v})
	}
	if err := checkSums(serial, ref); err != nil {
		return nil, fmt.Errorf("unbounded reference disagrees with the serial sum: %w", err)
	}

	instances := 0
	return &workload{
		name: "aggregate-spill", slots: 1, records: aggRecords, budget: aggBudget, baselineS: baseline,
		start: func(tr *trace.Tracer) (instance, error) {
			instances++
			ctx, err := newCtx(aggBudget, filepath.Join(dir, fmt.Sprintf("spill-%d", instances)), tr)
			if err != nil {
				return nil, err
			}
			return &contextInstance{ctx: ctx, job: job}, nil
		},
		check: func(r result) error { return checkSums(r.out.([]rdd.Pair[int64, int64]), ref) },
	}, nil
}

func sortedPairs(ps []rdd.Pair[int64, int64]) []rdd.Pair[int64, int64] {
	s := slices.Clone(ps)
	slices.SortFunc(s, func(a, b rdd.Pair[int64, int64]) int { return cmp.Compare(a.Key, b.Key) })
	return s
}

// checkSums verifies keyed sums against the sorted reference.
func checkSums(got, ref []rdd.Pair[int64, int64]) error {
	s := sortedPairs(got)
	if len(s) != len(ref) {
		return fmt.Errorf("aggregation returned %d keys, want %d", len(s), len(ref))
	}
	for i := range s {
		if s[i] != ref[i] {
			return fmt.Errorf("aggregation key %d = %d, want key %d = %d", s[i].Key, s[i].Value, ref[i].Key, ref[i].Value)
		}
	}
	return nil
}
