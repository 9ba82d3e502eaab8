package rdd

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"hpcmr/engine"
	"hpcmr/internal/spill"
)

// Table-driven failure-path tests for the gob checkpoint code: what
// happens when the checkpoint directory is damaged between SaveAsGob and
// LoadGob, and how a checkpoint interacts with lineage recomputation.

func TestLoadGobFailurePaths(t *testing.T) {
	cases := []struct {
		name string
		// corrupt damages a valid checkpoint directory before LoadGob.
		corrupt func(t *testing.T, dir string)
		// loadErr: LoadGob itself must fail.
		loadErr bool
		// actionErr: LoadGob succeeds but acting on the RDD must fail.
		actionErr bool
	}{
		{
			name:    "missing directory",
			corrupt: func(t *testing.T, dir string) { os.RemoveAll(dir) },
			loadErr: true,
		},
		{
			name: "empty directory",
			corrupt: func(t *testing.T, dir string) {
				ents, _ := os.ReadDir(dir)
				for _, e := range ents {
					os.Remove(filepath.Join(dir, e.Name()))
				}
			},
			loadErr: true,
		},
		{
			name: "part file deleted after load enumerates",
			corrupt: func(t *testing.T, dir string) {
				// Leave enumeration intact; damage happens lazily below.
			},
			actionErr: true,
		},
		{
			name: "part file truncated",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "part-00000"), []byte{0x01}, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			actionErr: true,
		},
		{
			name: "part file holds the wrong type",
			corrupt: func(t *testing.T, dir string) {
				f, err := os.Create(filepath.Join(dir, "part-00000"))
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if err := writeGobStrings(f, []string{"not", "ints"}); err != nil {
					t.Fatal(err)
				}
			},
			actionErr: true,
		},
		{
			name: "part file bit flipped",
			corrupt: func(t *testing.T, dir string) {
				// The last byte is the partition's final value: read
				// unchecked, this flip turns 200 into 201.
				path := filepath.Join(dir, "part-00000")
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-1] ^= 0x02
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			actionErr: true,
		},
		{
			name: "part file copied over another",
			corrupt: func(t *testing.T, dir string) {
				raw, err := os.ReadFile(filepath.Join(dir, "part-00001"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "part-00000"), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			actionErr: true,
		},
		{
			name: "valid entry holding the wrong type",
			corrupt: func(t *testing.T, dir string) {
				e := &spill.Entry{Space: "checkpoint", Part: 0, Owner: -1,
					Chunks: []any{[]string{"not", "ints"}}}
				if _, err := spill.WriteEntryFile(filepath.Join(dir, "part-00000"), e); err != nil {
					t.Fatal(err)
				}
			},
			actionErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewContext(engine.Config{Executors: 2, CoresPerExecutor: 2, MaxTaskFailures: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			dir := filepath.Join(t.TempDir(), "ckpt")
			if err := SaveAsGob(Parallelize(c, []int{100, 200, 300, 400, 500, 600}, 3), dir); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir)
			loaded, err := LoadGob[int](c, dir)
			if tc.loadErr {
				if err == nil {
					t.Fatal("LoadGob succeeded on a damaged checkpoint")
				}
				return
			}
			if err != nil {
				t.Fatalf("LoadGob: %v", err)
			}
			if tc.name == "part file deleted after load enumerates" {
				os.Remove(filepath.Join(dir, "part-00000"))
			}
			got, err := loaded.Collect()
			if tc.actionErr && err == nil {
				t.Fatalf("Collect succeeded on a damaged checkpoint: %v", got)
			}
			if !tc.actionErr && err != nil {
				t.Fatalf("Collect: %v", err)
			}
		})
	}
}

func writeGobStrings(f *os.File, vals []string) error {
	return gob.NewEncoder(f).Encode(vals)
}

// TestCheckpointRecomputeAfterLoss: losing the checkpoint files is NOT
// recoverable through lineage (Checkpoint truncates it by design) — but
// the original RDD's lineage is still intact and recomputes.
func TestCheckpointRecomputeAfterLoss(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 2, CoresPerExecutor: 2, MaxTaskFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var computes int64
	base := Map(Parallelize(c, []int{1, 2, 3, 4}, 2), func(v int) int {
		atomic.AddInt64(&computes, 1)
		return v * 10
	})
	dir := filepath.Join(t.TempDir(), "ckpt")
	ck, err := Checkpoint(base, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The checkpointed view is dead: its only source is the files.
	if _, err := ck.Collect(); err == nil {
		t.Fatal("Collect on a deleted checkpoint should fail")
	}
	// The pre-checkpoint lineage still works and recomputes from source.
	before := atomic.LoadInt64(&computes)
	got, err := base.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if fmt.Sprint(got) != "[10 20 30 40]" {
		t.Fatalf("recomputed data = %v", got)
	}
	if atomic.LoadInt64(&computes) == before {
		t.Fatal("lineage recompute did not rerun the map")
	}
}

// TestCheckpointHitSkipsLineage: a job over the checkpointed RDD must
// read the part files and never re-enter the upstream compute, even
// across multiple downstream jobs and a shuffle.
func TestCheckpointHitSkipsLineage(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 2, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var computes int64
	base := Map(Parallelize(c, []int{1, 2, 3, 4}, 2), func(v int) int {
		atomic.AddInt64(&computes, 1)
		return v * 10
	})
	ck, err := Checkpoint(base, filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	after := atomic.LoadInt64(&computes) // SaveAsGob ran the lineage once
	if after == 0 {
		t.Fatal("checkpointing never computed the lineage")
	}

	sum, err := Sum(Map(ck, func(v int) int { return v }))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 100 {
		t.Fatalf("sum = %d, want 100", sum)
	}
	counts, err := CountByValue(Map(ck, func(v int) int { return v % 20 }))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[10] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if got := atomic.LoadInt64(&computes); got != after {
		t.Fatalf("upstream compute ran %d more times after checkpoint", got-after)
	}
}
