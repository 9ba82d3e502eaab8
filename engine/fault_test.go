package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hpcmr/fault"
	"hpcmr/internal/sched"
)

// TestFailExecutorInvalidatesShuffleOutput: outputs written from a
// failed executor are invalidated, late writes from its zombie attempts
// are rejected, and fetches report the missing partitions as a typed
// MapOutputMissingError.
func TestFailExecutorInvalidatesShuffleOutput(t *testing.T) {
	rt, err := New(Config{Executors: 4, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Shuffle()
	id := s.Register(4, 2)
	for m := 0; m < 4; m++ {
		owner := m % 4
		buckets := []any{[]string{fmt.Sprintf("m%d-r0", m)}, []string{fmt.Sprintf("m%d-r1", m)}}
		if err := s.PutChunksFrom(id, m, owner, buckets); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Complete(id) {
		t.Fatal("shuffle should be complete before the crash")
	}

	lost := rt.FailExecutor(1)
	if len(lost) != 1 || lost[0] != (LostPart{Shuffle: id, MapPart: 1}) {
		t.Fatalf("lost = %v, want [{%d 1}]", lost, id)
	}
	if got := rt.AliveExecutors(); got != 3 {
		t.Fatalf("AliveExecutors = %d, want 3", got)
	}
	if got := s.MissingParts(id); len(got) != 1 || got[0] != 1 {
		t.Fatalf("MissingParts = %v, want [1]", got)
	}

	// Fetch now reports the hole with lineage-recovery detail.
	_, err = s.FetchChunks(id, 0)
	var miss *MapOutputMissingError
	if !errors.As(err, &miss) {
		t.Fatalf("FetchChunks error = %v, want MapOutputMissingError", err)
	}
	if miss.Shuffle != id || miss.MapPart != 1 {
		t.Fatalf("miss = %+v, want shuffle %d part 1", miss, id)
	}

	// A zombie attempt on the dead executor cannot resurrect the output.
	if err := s.PutChunksFrom(id, 1, 1, []any{[]string{"z"}, []string{"z"}}); !errors.Is(err, ErrExecutorLost) {
		t.Fatalf("zombie PutChunksFrom error = %v, want ErrExecutorLost", err)
	}
	// Re-execution from a healthy executor heals it.
	if err := s.PutChunksFrom(id, 1, 2, []any{[]string{"m1-r0"}, []string{"m1-r1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchChunks(id, 0); err != nil {
		t.Fatalf("FetchChunks after re-execution: %v", err)
	}
	// Failing the same executor twice is a no-op.
	if again := rt.FailExecutor(1); again != nil {
		t.Fatalf("second FailExecutor = %v, want nil", again)
	}
}

// TestCrashMidStageRequeuesAndCompletes: a count-triggered crash halfway
// through a stage kills an executor; every task must still complete
// exactly once (per the done accounting), with lost attempts requeued on
// the survivors and no retry budget burned.
func TestCrashMidStageRequeuesAndCompletes(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 1, AfterTasks: 10},
	}}
	var auditMu sync.Mutex
	var audits []string
	cfg := Config{
		Executors:        4,
		CoresPerExecutor: 2,
		MaxTaskFailures:  1, // any burned budget fails the stage loudly
		Faults:           fault.NewInjector(plan),
		SchedAudit: func(e sched.AuditEvent) {
			if e.Policy == "fault" {
				auditMu.Lock()
				audits = append(audits, e.Kind)
				auditMu.Unlock()
			}
		},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ran int64
	tasks := make([]TaskSpec, 20)
	for i := range tasks {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			atomic.AddInt64(&ran, 1)
			return nil
		}}
	}
	if err := rt.RunStage("crashy", tasks); err != nil {
		t.Fatalf("stage failed despite surviving executors: %v", err)
	}
	if rt.AliveExecutors() != 3 {
		t.Fatalf("AliveExecutors = %d, want 3", rt.AliveExecutors())
	}
	if atomic.LoadInt64(&ran) < 20 {
		t.Fatalf("task bodies ran %d times, want >= 20", ran)
	}
	auditMu.Lock()
	defer auditMu.Unlock()
	crashes := 0
	for _, k := range audits {
		if k == "crash" {
			crashes++
		}
	}
	if crashes != 1 {
		t.Fatalf("audit crash events = %d (%v), want 1", crashes, audits)
	}
}

// TestAllExecutorsLostFailsStage: crashing every executor fails the
// stage with ErrAllExecutorsLost instead of hanging.
func TestAllExecutorsLostFailsStage(t *testing.T) {
	rt, err := New(Config{Executors: 2, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt.FailExecutor(0)
	rt.FailExecutor(1)
	err = rt.RunStage("doomed", []TaskSpec{{Run: func(tc *TaskContext) error { return nil }}})
	if !errors.Is(err, ErrAllExecutorsLost) {
		t.Fatalf("err = %v, want ErrAllExecutorsLost", err)
	}
}

// TestFetchShuffleRetriesTransientLoss: two injected fetch losses are
// absorbed by the bounded retry (MaxFetchRetries = 3) and the third
// attempt returns the data; the retries are audited.
func TestFetchShuffleRetriesTransientLoss(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindFetchLoss, Node: 0, Count: 2},
	}}
	var retries int64
	cfg := Config{
		Executors:        2,
		CoresPerExecutor: 1,
		Faults:           fault.NewInjector(plan),
		MaxFetchRetries:  3,
		SchedAudit: func(e sched.AuditEvent) {
			if e.Policy == "fault" && e.Kind == "fetch-retry" {
				atomic.AddInt64(&retries, 1)
			}
		},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := rt.Shuffle().Register(1, 1)
	if err := rt.Shuffle().PutChunksFrom(id, 0, -1, []any{[]string{"v"}}); err != nil {
		t.Fatal(err)
	}
	tc := &TaskContext{Executor: 0}
	out, err := rt.FetchShuffleChunks(tc, id, 0)
	if err != nil {
		t.Fatalf("FetchShuffleChunks: %v", err)
	}
	if ch, ok := out[0].([]string); len(out) != 1 || !ok || len(ch) != 1 || ch[0] != "v" {
		t.Fatalf("out = %v, want [[v]]", out)
	}
	if got := atomic.LoadInt64(&retries); got != 2 {
		t.Fatalf("audited retries = %d, want 2", got)
	}
}

// TestFetchShuffleExhaustsRetries: losses beyond the retry budget
// surface the injected error, wrapped with attempt context.
func TestFetchShuffleExhaustsRetries(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindFetchLoss, Node: 0, Count: 100},
	}}
	rt, err := New(Config{
		Executors: 2, CoresPerExecutor: 1,
		Faults: fault.NewInjector(plan), MaxFetchRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := rt.Shuffle().Register(1, 1)
	if err := rt.Shuffle().PutChunksFrom(id, 0, -1, []any{[]string{"v"}}); err != nil {
		t.Fatal(err)
	}
	_, err = rt.FetchShuffleChunks(&TaskContext{Executor: 0}, id, 0)
	var inj *fault.InjectedError
	if !errors.As(err, &inj) || inj.Kind != fault.KindFetchLoss {
		t.Fatalf("err = %v, want wrapped fetch-loss InjectedError", err)
	}
}

// TestFetchShuffleMissingOutputNotRetried: a missing map output is not
// transient — FetchShuffleChunks must return MapOutputMissingError immediately
// so the caller recovers through lineage, not by spinning.
func TestFetchShuffleMissingOutputNotRetried(t *testing.T) {
	rt, err := New(Config{Executors: 2, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := rt.Shuffle().Register(2, 1)
	if err := rt.Shuffle().PutChunksFrom(id, 0, -1, []any{[]string{"v"}}); err != nil {
		t.Fatal(err)
	}
	_, err = rt.FetchShuffleChunks(&TaskContext{Executor: 0}, id, 0)
	var miss *MapOutputMissingError
	if !errors.As(err, &miss) {
		t.Fatalf("err = %v, want MapOutputMissingError", err)
	}
	if miss.MapPart != 1 {
		t.Fatalf("missing part = %d, want 1", miss.MapPart)
	}
}

// TestInjectedTaskFailuresDriveRetryBudget: task-fail events consume the
// per-task retry budget like organic failures, and the stage still
// completes when the budget holds.
func TestInjectedTaskFailuresDriveRetryBudget(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTaskFail, Node: 0, Count: 2},
	}}
	rt, err := New(Config{
		Executors: 1, CoresPerExecutor: 1, MaxTaskFailures: 3,
		Faults: fault.NewInjector(plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran int64
	err = rt.RunStage("flaky", []TaskSpec{{Run: func(tc *TaskContext) error {
		atomic.AddInt64(&ran, 1)
		return nil
	}}})
	if err != nil {
		t.Fatalf("stage failed: %v", err)
	}
	if got := rt.Metrics().TaskFailures(); got != 2 {
		t.Fatalf("TaskFailures = %d, want 2 injected", got)
	}
	if atomic.LoadInt64(&ran) != 1 {
		t.Fatalf("body ran %d times, want 1 (injected failures precede the body)", ran)
	}
}
