package perf

import (
	"math"
	"strings"
	"testing"
)

func TestCoverageFromProfile(t *testing.T) {
	// 3 of 4 statements covered -> 75%.
	profile := `mode: set
a/a.go:1.1,2.2 2 1
a/a.go:3.1,4.2 1 0
b/b.go:1.1,9.9 1 5
`
	pct, err := CoverageFromProfile(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pct-75) > 1e-9 {
		t.Errorf("coverage = %g, want 75", pct)
	}
}

func TestCoverageFromProfileDeduplicatesBlocks(t *testing.T) {
	// A multi-package run repeats blocks once per test binary; a block
	// hit by any binary counts covered, and statements count once.
	// Here: 2-stmt block covered by the second entry only, 1-stmt block
	// never covered -> 2/3.
	profile := `mode: set
a/a.go:1.1,2.2 2 0
a/a.go:1.1,2.2 2 1
a/a.go:3.1,4.2 1 0
a/a.go:3.1,4.2 1 0
`
	pct, err := CoverageFromProfile(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pct-100.0*2/3) > 1e-9 {
		t.Errorf("coverage = %g, want %g", pct, 100.0*2/3)
	}
}

func TestCoverageFromProfileErrors(t *testing.T) {
	cases := map[string]string{
		"missing header": "a/a.go:1.1,2.2 2 1\n",
		"malformed line": "mode: set\nnot a profile line\n",
		"empty":          "mode: set\n",
		"bad count":      "mode: set\na/a.go:1.1,2.2 x 1\n",
	}
	for name, profile := range cases {
		if _, err := CoverageFromProfile(strings.NewReader(profile)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCoverage(t *testing.T) {
	if err := CheckCoverage(75, 70); err != nil {
		t.Errorf("75%% failed a 70%% floor: %v", err)
	}
	if err := CheckCoverage(69.9, 70); err == nil {
		t.Error("69.9% passed a 70% floor")
	}
}

func TestCheckTraceOverhead(t *testing.T) {
	ok := TraceOverhead{Tasks: 512, Events: 1030, UntracedSeconds: 1, TracedSeconds: 1.03}
	if err := CheckTraceOverhead(ok, 0.05); err != nil {
		t.Errorf("within budget failed: %v", err)
	}
	slow := TraceOverhead{Tasks: 512, Events: 1030, UntracedSeconds: 1, TracedSeconds: 1.09}
	if err := CheckTraceOverhead(slow, 0.05); err == nil {
		t.Error("9% overhead passed a 5% budget")
	}
	lossy := TraceOverhead{Tasks: 512, Events: 100, UntracedSeconds: 1, TracedSeconds: 1.01}
	if err := CheckTraceOverhead(lossy, 0.05); err == nil {
		t.Error("fewer events than tasks passed")
	}
}

func TestCheckKernel(t *testing.T) {
	if err := CheckKernel(5.5, 4700, 3, 4000); err != nil {
		t.Errorf("healthy kernel failed: %v", err)
	}
	if err := CheckKernel(2.9, 4700, 3, 4000); err == nil {
		t.Error("lost speedup margin passed")
	}
	if err := CheckKernel(5.5, 100, 3, 4000); err == nil {
		t.Error("under-scaled churn passed")
	}
}

func TestKernelSpeedup(t *testing.T) {
	rep := &Report{Scenarios: []ScenarioResult{
		{Name: "kernel/churn-incremental", Stats: Stats{MedianNs: 2e6},
			Extra: Extras{"peak_concurrent_flows": 4709}},
		{Name: "kernel/churn-brute", Stats: Stats{MedianNs: 13e6},
			Extra: Extras{"peak_concurrent_flows": 4709}},
	}}
	speedup, peak, err := KernelSpeedup(rep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(speedup-6.5) > 1e-9 || peak != 4709 {
		t.Errorf("speedup %g peak %d, want 6.5 and 4709", speedup, peak)
	}
	rep.Scenarios = rep.Scenarios[:1]
	if _, _, err := KernelSpeedup(rep); err == nil {
		t.Error("report without the brute scenario accepted")
	}
}

func TestCheckAB(t *testing.T) {
	arm := func(name string, samples ...float64) *ScenarioResult {
		return &ScenarioResult{Name: name, SamplesNs: samples, Stats: Summarize(samples)}
	}
	fast := arm("a", 10, 11, 12, 10, 11, 12, 10)
	slow := arm("b", 20, 21, 22, 20, 21, 22, 20)
	if p, err := CheckAB(fast, slow, 0.05); err != nil || p >= 0.05 {
		t.Errorf("separated arms: p=%g err=%v", p, err)
	}
	if _, err := CheckAB(slow, fast, 0.05); err == nil {
		t.Error("slower A arm passed")
	}
	// A lower median alone is not enough: the shift must be significant.
	overlapping := arm("b", 10.1, 11.1, 12.1, 10.1, 11.1, 12.1, 10.1)
	if _, err := CheckAB(fast, overlapping, 0.05); err == nil {
		t.Error("insignificant shift passed")
	}
}
