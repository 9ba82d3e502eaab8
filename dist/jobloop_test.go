package dist

import (
	"bytes"
	"fmt"
	"regexp"
	"sync"
	"testing"

	"hpcmr/engine"
	"hpcmr/fault"
)

// TestKeyedSumChaosSweep crashes an executor after every task count of
// the non-iterative job (map plus reduce), alternating the victim, and
// demands output byte-identical to a fault-free run: a job with Steps =
// 0 recovers through the same generation loop and repair chain as an
// iterative one.
func TestKeyedSumChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	spec := testSpec()
	clean, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}
	for after := 1; after <= spec.MapParts+spec.ReduceParts; after++ {
		victim := after % 3
		t.Run(fmt.Sprintf("victim-%d-after-%d", victim, after), func(t *testing.T) {
			plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: victim, AfterTasks: after}}}
			lc, err := StartLocal(LocalConfig{Executors: 3, Plan: plan, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			got, err := lc.Run(spec)
			if err != nil {
				t.Fatalf("victim %d after %d tasks: %v", victim, after, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("victim %d after %d tasks: output differs from clean run: %d vs %d bytes",
					victim, after, len(got), len(want))
			}
			checkKeyedSum(t, got, spec.Records, spec.Keys)
		})
	}
}

// TestStageNamesAndCounts pins the stages a job runs: one map stage,
// Steps superstep stages named by their generation, and one reduce
// stage. The per-phase time split of the repository benchmark assigns
// stages to phases by these names.
func TestStageNamesAndCounts(t *testing.T) {
	for _, spec := range []JobSpec{
		{Job: "pagerank", ReduceParts: 4, Records: 1024, Steps: 3},
		testSpec(),
	} {
		t.Run(spec.Job, func(t *testing.T) {
			lc, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			var mu sync.Mutex
			var names []string
			lc.Driver.Runtime().AddListener(engine.FuncListener{
				StageEnd: func(m engine.StageMetrics) {
					mu.Lock()
					names = append(names, m.Name)
					mu.Unlock()
				},
			})
			if _, err := lc.Run(spec); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(names) != spec.Steps+2 {
				t.Fatalf("stages %v: got %d, want %d", names, len(names), spec.Steps+2)
			}
			mapName := regexp.MustCompile("^" + spec.Job + `-map-\d+$`)
			reduceName := regexp.MustCompile("^" + spec.Job + `-reduce-\d+$`)
			if !mapName.MatchString(names[0]) {
				t.Errorf("first stage %q is not the map stage", names[0])
			}
			for g := 1; g <= spec.Steps; g++ {
				want := fmt.Sprintf("^%s-step%d-\\d+$", spec.Job, g)
				if !regexp.MustCompile(want).MatchString(names[g]) {
					t.Errorf("stage %d is %q, want superstep %d", g, names[g], g)
				}
			}
			if last := names[len(names)-1]; !reduceName.MatchString(last) {
				t.Errorf("last stage %q is not the reduce stage", last)
			}
		})
	}
}
