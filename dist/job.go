package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
)

// JobSpec names a registered job and its parameters. Closures cannot
// cross a process boundary, so distributed jobs are named computations
// both the driver and executor binaries compile in; the spec is the
// only state that travels.
type JobSpec struct {
	// Job names the registered job ("keyed-sum", "wordcount").
	Job string
	// MapParts/ReduceParts shape the shuffle (defaults: 2x executors
	// and executors, resolved by the driver).
	MapParts, ReduceParts int
	// Records/Keys parameterize keyed-sum; Records is the node count of
	// pagerank.
	Records, Keys int64
	// Path is wordcount's input file (shared filesystem — the cluster
	// is N local processes).
	Path string
	// Steps is the superstep count of an iterative job (pagerank); it
	// resolves to 0 for jobs without a Step function.
	Steps int
}

// MapOutput is one map task's result: exactly ReduceParts bucket
// chunks (nil where empty) plus the shuffle volume they represent.
type MapOutput struct {
	Buckets []any
	Records int64
	Bytes   int64
}

// Job is a named computation run as a chain of generations, one
// shuffle each. Map produces one map partition's buckets of generation
// 0; Step, for an iterative job, turns one partition of generation g-1
// into its buckets of generation g; Reduce merges one reduce
// partition's chunks of the last generation into an encoded output;
// Merge combines the encoded reduce outputs into the job's final result
// bytes (driver side). All must be deterministic: the chaos harness
// asserts byte-identical results across fault-free and recovered runs.
type Job struct {
	Name   string
	Map    func(spec JobSpec, part int) (MapOutput, error)
	Reduce func(spec JobSpec, part int, chunks []any) ([]byte, error)
	Merge  func(spec JobSpec, parts [][]byte) ([]byte, error)
	// Step, when set, makes the job iterative: the driver runs Map once
	// (generation 0), then spec.Steps superstep stages — each gathers
	// the previous generation's shuffle and writes the next — and
	// finally Reduce over the last generation. Without Step, Steps is 0
	// and Reduce gathers Map's output directly.
	Step func(spec JobSpec, step, part int, chunks []any) (MapOutput, error)
}

var jobs = map[string]Job{}

// RegisterJob adds a job to the registry; duplicate names panic (the
// registry is assembled at init time).
func RegisterJob(j Job) {
	if j.Name == "" || j.Map == nil || j.Reduce == nil || j.Merge == nil {
		panic("dist: RegisterJob: incomplete job")
	}
	if _, ok := jobs[j.Name]; ok {
		panic("dist: RegisterJob: duplicate job " + j.Name)
	}
	jobs[j.Name] = j
}

// LookupJob resolves a registered job by name.
func LookupJob(name string) (Job, error) {
	j, ok := jobs[name]
	if !ok {
		return Job{}, fmt.Errorf("dist: unknown job %q", name)
	}
	return j, nil
}

// gobEncode serializes v deterministically (gob field order is fixed by
// the struct definition).
func gobEncode(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeKVs decodes a []KV result produced by the integer-keyed jobs.
func DecodeKVs(data []byte) ([]KV, error) {
	var out []KV
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
		return nil, fmt.Errorf("dist: decode KV result: %w", err)
	}
	return out, nil
}

// DecodeSKVs decodes a []SKV result produced by the string-keyed jobs.
func DecodeSKVs(data []byte) ([]SKV, error) {
	var out []SKV
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
		return nil, fmt.Errorf("dist: decode SKV result: %w", err)
	}
	return out, nil
}

// ---- keyed-sum: the chaos and perf workhorse ----
//
// Key k sums every i in [0, Records) with i % Keys == k. The map side
// combines (one record per distinct key per partition), buckets by
// key % ReduceParts, and emits each bucket sorted by key; reduce and
// merge keep everything sorted, so the final []KV encoding is
// byte-identical run to run.

func keyedSumMap(spec JobSpec, part int) (MapOutput, error) {
	lo := spec.Records * int64(part) / int64(spec.MapParts)
	hi := spec.Records * int64(part+1) / int64(spec.MapParts)
	sums := make(map[int64]int64, spec.Keys)
	for i := lo; i < hi; i++ {
		sums[i%spec.Keys] += i
	}
	buckets := make([][]KV, spec.ReduceParts)
	for k, v := range sums {
		r := int(k % int64(spec.ReduceParts))
		buckets[r] = append(buckets[r], KV{K: k, V: v})
	}
	out := MapOutput{Buckets: make([]any, spec.ReduceParts)}
	for r, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i].K < b[j].K })
		out.Buckets[r] = b
		out.Records += int64(len(b))
		out.Bytes += int64(len(b)) * 16
	}
	return out, nil
}

func keyedSumReduce(_ JobSpec, _ int, chunks []any) ([]byte, error) {
	sums := make(map[int64]int64)
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		kvs, ok := ch.([]KV)
		if !ok {
			return nil, fmt.Errorf("dist: keyed-sum reduce got chunk %T, want []KV", ch)
		}
		for _, kv := range kvs {
			sums[kv.K] += kv.V
		}
	}
	return gobEncode(sortedKVs(sums))
}

func keyedSumMerge(_ JobSpec, parts [][]byte) ([]byte, error) {
	var all []KV
	for _, p := range parts {
		kvs, err := DecodeKVs(p)
		if err != nil {
			return nil, err
		}
		all = append(all, kvs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].K < all[j].K })
	return gobEncode(all)
}

func sortedKVs(m map[int64]int64) []KV {
	out := make([]KV, 0, len(m))
	for k, v := range m {
		out = append(out, KV{K: k, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// ---- wordcount: the mrrun-facing job ----
//
// Each map partition takes a contiguous range of the file's lines,
// counts words (whitespace-split, lowercased), and buckets by
// fnv32(word) % ReduceParts.

func wordcountLines(spec JobSpec, part int) ([]string, error) {
	data, err := os.ReadFile(spec.Path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	n := int64(len(lines))
	lo := n * int64(part) / int64(spec.MapParts)
	hi := n * int64(part+1) / int64(spec.MapParts)
	return lines[lo:hi], nil
}

func wordcountMap(spec JobSpec, part int) (MapOutput, error) {
	lines, err := wordcountLines(spec, part)
	if err != nil {
		return MapOutput{}, err
	}
	counts := make(map[string]int64)
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			counts[strings.ToLower(w)]++
		}
	}
	buckets := make([][]SKV, spec.ReduceParts)
	out := MapOutput{Buckets: make([]any, spec.ReduceParts)}
	for w, c := range counts {
		h := fnv.New32a()
		h.Write([]byte(w))
		r := int(h.Sum32() % uint32(spec.ReduceParts))
		buckets[r] = append(buckets[r], SKV{K: w, V: c})
	}
	for r, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i].K < b[j].K })
		out.Buckets[r] = b
		out.Records += int64(len(b))
		for _, kv := range b {
			out.Bytes += int64(len(kv.K)) + 8
		}
	}
	return out, nil
}

func wordcountReduce(_ JobSpec, _ int, chunks []any) ([]byte, error) {
	counts := make(map[string]int64)
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		kvs, ok := ch.([]SKV)
		if !ok {
			return nil, fmt.Errorf("dist: wordcount reduce got chunk %T, want []SKV", ch)
		}
		for _, kv := range kvs {
			counts[kv.K] += kv.V
		}
	}
	out := make([]SKV, 0, len(counts))
	for k, v := range counts {
		out = append(out, SKV{K: k, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return gobEncode(out)
}

func wordcountMerge(_ JobSpec, parts [][]byte) ([]byte, error) {
	var all []SKV
	for _, p := range parts {
		kvs, err := DecodeSKVs(p)
		if err != nil {
			return nil, err
		}
		all = append(all, kvs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].K < all[j].K })
	return gobEncode(all)
}

func init() {
	RegisterJob(Job{Name: "keyed-sum", Map: keyedSumMap, Reduce: keyedSumReduce, Merge: keyedSumMerge})
	RegisterJob(Job{Name: "wordcount", Map: wordcountMap, Reduce: wordcountReduce, Merge: wordcountMerge})
}

// withDefaults resolves a spec's open parameters against the cluster
// size, validates it, and looks up its job.
func (s JobSpec) withDefaults(executors int) (JobSpec, Job, error) {
	job, err := LookupJob(s.Job)
	if err != nil {
		return s, job, err
	}
	if job.Step == nil || s.Steps < 0 {
		s.Steps = 0
	}
	if s.MapParts <= 0 {
		s.MapParts = 2 * executors
	}
	if s.ReduceParts <= 0 {
		s.ReduceParts = executors
	}
	switch s.Job {
	case "keyed-sum":
		if s.Records <= 0 {
			s.Records = 100_000
		}
		if s.Keys <= 0 {
			s.Keys = 64
		}
	case "wordcount":
		if s.Path == "" {
			return s, job, fmt.Errorf("dist: wordcount needs a Path")
		}
	case "pagerank":
		// Square geometry: map partition p seeds exactly reduce bucket
		// p, so every generation is bucket-aligned and the stable
		// partitioner gives each bucket a sole owner from the start.
		s.MapParts = s.ReduceParts
		if s.Steps <= 0 {
			s.Steps = 4
		}
		if s.Records <= 0 {
			s.Records = 4096
		}
		// Node count must divide evenly into buckets so intra-bucket
		// edges (n + k*ReduceParts mod N) stay in bucket n%ReduceParts.
		if rem := s.Records % int64(s.ReduceParts); rem != 0 {
			s.Records += int64(s.ReduceParts) - rem
		}
	}
	return s, job, nil
}
