package rdd

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hpcmr/engine"
	"hpcmr/internal/codec"
	"hpcmr/internal/spill"
)

// SaveAsGob checkpoints an RDD to dir as one part-NNNNN file per
// partition: a spill entry (space "checkpoint", Part = partition) whose
// single chunk is the partition's []T, in CRC-checked codec frames.
// Unlike Cache (memory-resident, lost with the context), a checkpoint
// survives the process and truncates lineage when reloaded with LoadGob.
// T must be gob-encodable.
func SaveAsGob[T any](r *RDD[T], dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("rdd: SaveAsGob: %w", err)
	}
	return r.n.runJob("saveAsGob", func(part int, chunks []any) error {
		e := &spill.Entry{Space: checkpointSpace, Part: part, Owner: -1,
			Chunks: boxBuckets([][]T{flattenChunks[T](chunks)})}
		name := filepath.Join(dir, fmt.Sprintf("part-%05d", part))
		if _, err := spill.WriteEntryFile(name, e); err != nil {
			return fmt.Errorf("rdd: SaveAsGob part %d: %w", part, err)
		}
		return nil
	})
}

const checkpointSpace = "checkpoint"

// LoadGob reads a checkpoint written by SaveAsGob: one partition per
// part file, in name order. A part that fails its checksum, names
// another partition, or holds a chunk other than []T fails the action
// that reads it.
func LoadGob[T any](c *Context, dir string) (*RDD[T], error) {
	// The chunk decodes through an interface field, so []T must be
	// registered in this process even if it never saved one.
	if err := codec.Register([]T(nil)); err != nil {
		return nil, fmt.Errorf("rdd: LoadGob: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rdd: LoadGob: %w", err)
	}
	var parts []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "part-") && !e.IsDir() {
			parts = append(parts, filepath.Join(dir, e.Name()))
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("rdd: LoadGob: no part files in %s", dir)
	}
	sort.Strings(parts)
	execs := c.Executors()
	n := newNode(c, len(parts), nil, nil,
		func(part int, _ *engine.TaskContext, sink func(any)) error {
			e, err := spill.ReadEntryFile(parts[part], checkpointSpace, 0, part)
			if err != nil {
				return fmt.Errorf("rdd: LoadGob part %d: %w", part, err)
			}
			if len(e.Chunks) != 1 {
				return fmt.Errorf("rdd: LoadGob part %d: %d chunks, want 1", part, len(e.Chunks))
			}
			if e.Chunks[0] == nil {
				return nil
			}
			typed, ok := e.Chunks[0].([]T)
			if !ok {
				return fmt.Errorf("rdd: LoadGob part %d: chunk is %T, want %T", part, e.Chunks[0], typed)
			}
			// The decoded partition is sunk whole as one chunk.
			sink(typed)
			return nil
		},
		func(part int) []int { return []int{part % execs} },
	)
	return &RDD[T]{n: n}, nil
}

// Checkpoint saves the RDD to dir and returns a new RDD reading from
// the checkpoint — computation up to this point never reruns.
func Checkpoint[T any](r *RDD[T], dir string) (*RDD[T], error) {
	if err := SaveAsGob(r, dir); err != nil {
		return nil, err
	}
	return LoadGob[T](r.n.ctx, dir)
}
