package perf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file holds the gate logic that cmd/cigate fronts, so the exact
// same checks run locally (`go run ./cmd/cigate ...`) and in the
// workflow.

// CoverageFromProfile computes total statement coverage (percent) from
// a `go test -coverprofile` file, the same number `go tool cover
// -func`'s "total:" row reports: covered statements / statements.
//
// A multi-package test run writes one profile entry per block *per
// test binary*, so the same block can appear several times with
// different hit counts; blocks are deduplicated by position and count
// as covered when any entry hit them (how `go tool cover` merges).
func CoverageFromProfile(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type block struct {
		stmts   int
		covered bool
	}
	blocks := map[string]block{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if !strings.HasPrefix(line, "mode:") {
				return 0, fmt.Errorf("cover profile: missing mode header, got %q", line)
			}
			continue
		}
		// file.go:sl.sc,el.ec numStmts count
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return 0, fmt.Errorf("cover profile: malformed line %q", line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, fmt.Errorf("cover profile: bad statement count in %q: %w", line, err)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return 0, fmt.Errorf("cover profile: bad hit count in %q: %w", line, err)
		}
		b := blocks[fields[0]]
		b.stmts = stmts
		b.covered = b.covered || count > 0
		blocks[fields[0]] = b
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	total, covered := 0, 0
	for _, b := range blocks {
		total += b.stmts
		if b.covered {
			covered += b.stmts
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("cover profile: no statements")
	}
	return 100 * float64(covered) / float64(total), nil
}

// CheckCoverage fails when pct is below floor.
func CheckCoverage(pct, floor float64) error {
	if pct < floor {
		return fmt.Errorf("coverage %.1f%% below the %.1f%% floor", pct, floor)
	}
	return nil
}

// ABPair names two registered scenarios that differ in one setting:
// A has the optimization on and must beat its twin B.
type ABPair struct{ A, B string }

// ABPairs are the optimizations whose wall-time win `cigate ab` gates:
// map-side combining and shuffle-locality placement.
var ABPairs = []ABPair{
	{A: "engine/agg-lowcard", B: "engine/agg-lowcard-nocombine"},
	{A: "engine/iterative-pagerank", B: "engine/iterative-pagerank-nolocality"},
}

// RunAB measures both arms of p in one RunScenarios call, so rep i of
// each arm is a time-adjacent pair.
func RunAB(p ABPair, o RunOptions, logf func(format string, args ...any)) (a, b *ScenarioResult, err error) {
	scens, err := Select(p.A + "," + p.B)
	if err != nil {
		return nil, nil, err
	}
	rep, err := RunScenarios(scens, o, logf)
	if err != nil {
		return nil, nil, err
	}
	return rep.Scenario(p.A), rep.Scenario(p.B), nil
}

// CheckAB requires arm a to be faster than arm b: a lower median wall
// time, and a Mann-Whitney U p-value below alpha. It returns the
// p-value either way.
func CheckAB(a, b *ScenarioResult, alpha float64) (float64, error) {
	p := MannWhitneyU(a.SamplesNs, b.SamplesNs)
	if a.Stats.MedianNs >= b.Stats.MedianNs || p >= alpha {
		return p, fmt.Errorf("%s not significantly faster than %s: median %.2fms vs %.2fms, p=%.4f",
			a.Name, b.Name, a.Stats.MedianNs/1e6, b.Stats.MedianNs/1e6, p)
	}
	return p, nil
}

// TraceOverhead is one measurement of trace-capture cost: the fastest
// untraced and the fastest traced run of the many-short-tasks workload.
type TraceOverhead struct {
	Tasks           int
	Events          int // captured by the last traced run
	UntracedSeconds float64
	TracedSeconds   float64
}

// Overhead is the traced run's relative slowdown (+0.03 = 3% slower).
func (m TraceOverhead) Overhead() float64 { return m.TracedSeconds/m.UntracedSeconds - 1 }

// MeasureTraceOverhead runs 512 tasks on 4 executors x 2 cores, five
// times untraced and then five times traced, and keeps the fastest run
// of each mode (the minimum is the standard way to strip scheduler
// noise from a microbenchmark). Each task burns a fixed ~150 µs of CPU,
// sized so the per-task capture cost (two ring writes and a clock read,
// well under a microsecond) is amplified rather than hidden behind long
// task bodies.
func MeasureTraceOverhead() (TraceOverhead, error) {
	spec := engineWorkloadSpec{Tasks: 512, Executors: 4, Cores: 2, WorkUS: 150}
	m := TraceOverhead{Tasks: spec.Tasks}
	var err error
	if m.UntracedSeconds, _, err = fastest(spec); err != nil {
		return m, err
	}
	spec.Traced = true
	m.TracedSeconds, m.Events, err = fastest(spec)
	return m, err
}

// fastest runs spec five times and returns the fastest run's seconds
// plus the event count captured on the last run.
func fastest(spec engineWorkloadSpec) (float64, int, error) {
	best, events := 0.0, 0
	for i := 0; i < 5; i++ {
		secs, n, err := runEngineWorkload(spec)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || secs < best {
			best = secs
		}
		events = n
	}
	return best, events, nil
}

// CheckTraceOverhead enforces the capture-overhead budget: tracing may
// not slow the engine by more than maxOverhead, and the traced run must
// have captured at least one event per task.
func CheckTraceOverhead(m TraceOverhead, maxOverhead float64) error {
	if ov := m.Overhead(); ov > maxOverhead {
		return fmt.Errorf("trace capture overhead %+.2f%% exceeds the %.0f%% budget",
			ov*100, maxOverhead*100)
	}
	if m.Events < m.Tasks {
		return fmt.Errorf("traced run captured %d events for %d tasks", m.Events, m.Tasks)
	}
	return nil
}

// KernelSpeedup reads the kernel gate's inputs from a report holding
// both kernel/churn scenarios: the brute-force median over the
// incremental median, and the incremental run's peak concurrent flows.
func KernelSpeedup(rep *Report) (speedup float64, peak int, err error) {
	inc, brute := rep.Scenario("kernel/churn-incremental"), rep.Scenario("kernel/churn-brute")
	if inc == nil || brute == nil {
		return 0, 0, fmt.Errorf("report lacks kernel/churn-incremental or kernel/churn-brute")
	}
	return brute.Stats.MedianNs / inc.Stats.MedianNs, int(inc.Extra["peak_concurrent_flows"]), nil
}

// CheckKernel enforces the incremental kernel's margin over the
// brute-force oracle and the scenario's concurrency floor.
func CheckKernel(speedup float64, peak int, minSpeedup float64, minPeak int) error {
	if speedup < minSpeedup {
		return fmt.Errorf("incremental kernel speedup %.2fx below the %.1fx margin", speedup, minSpeedup)
	}
	if peak < minPeak {
		return fmt.Errorf("churn scenario peaked at %d concurrent flows, want >= %d", peak, minPeak)
	}
	return nil
}
