package rdd

import (
	"fmt"
	"sync"

	"hpcmr/engine"
)

// Recovery bounds. A stage is retried after lineage repair at most
// maxStageRecoveries times, and repair recursion (a rebuild tripping
// over another lost shuffle upstream) is cut off at maxLineageDepth;
// both exist only to turn a recovery bug into an error instead of an
// infinite loop.
const (
	maxStageRecoveries = 8
	maxLineageDepth    = 8
)

// fullyCached reports whether every partition of n is already resident,
// in which case its lineage does not need to run.
func (n *node) fullyCached() bool {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	if !n.cached {
		return false
	}
	for _, ok := range n.cacheOK {
		if !ok {
			return false
		}
	}
	return true
}

// collectDeps gathers the unmaterialized shuffle dependencies reachable
// from n, parents first.
func collectDeps(n *node, seen map[*shuffleDep]bool, out *[]*shuffleDep) {
	if n.fullyCached() {
		return
	}
	for _, p := range n.parents {
		collectDeps(p, seen, out)
	}
	for _, d := range n.deps {
		if seen[d] {
			continue
		}
		seen[d] = true
		collectDeps(d.parent, seen, out)
		d.mu.Lock()
		done := d.materialized
		d.mu.Unlock()
		if !done {
			*out = append(*out, d)
		}
	}
}

// registerDep records a materialized dependency so executor-loss
// recovery can find it again from an engine shuffle ID.
func (c *Context) registerDep(id int, d *shuffleDep) {
	c.depMu.Lock()
	defer c.depMu.Unlock()
	if c.depsByEngineID == nil {
		c.depsByEngineID = make(map[int]*shuffleDep)
	}
	c.depsByEngineID[id] = d
}

// depByEngineID resolves an engine shuffle ID back to its dependency.
func (c *Context) depByEngineID(id int) *shuffleDep {
	c.depMu.Lock()
	defer c.depMu.Unlock()
	return c.depsByEngineID[id]
}

// shuffleMapTasks builds the map tasks that (re)materialize the given
// map partitions of a dependency into engine shuffle id. Output is
// written with PutChunksFrom so the store records which executor owns each
// partition — the provenance executor-loss invalidation keys on.
func (c *Context) shuffleMapTasks(d *shuffleDep, id int, parts []int) []engine.TaskSpec {
	parent := d.parent
	tasks := make([]engine.TaskSpec, len(parts))
	for i, p := range parts {
		p := p
		var pref []int
		if parent.preferred != nil {
			pref = parent.preferred(p)
		}
		tasks[i] = engine.TaskSpec{
			Preferred: pref,
			Run: func(tc *engine.TaskContext) error {
				var chunks []any
				if err := parent.iterate(p, tc, func(ch any) { chunks = append(chunks, ch) }); err != nil {
					return err
				}
				buckets, records, bytes := d.write(chunks)
				// The writer's volume feeds the load balancer and the
				// runtime's shuffle-movement metrics.
				tc.AddShuffleRecords(int64(records))
				tc.AddShuffleBytes(float64(bytes))
				return c.rt.Shuffle().PutChunksFrom(id, p, tc.Executor, buckets)
			},
		}
	}
	return tasks
}

// materialize runs the map stage of one shuffle dependency.
func (c *Context) materialize(d *shuffleDep) error {
	d.mu.Lock()
	if d.materialized {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	id := c.rt.Shuffle().Register(d.parent.parts, d.reduceParts)
	c.registerDep(id, d)
	allParts := make([]int, d.parent.parts)
	for p := range allParts {
		allParts[p] = p
	}
	tasks := c.shuffleMapTasks(d, id, allParts)
	if err := c.runStageRecovering(fmt.Sprintf("shufflemap-%d", id), tasks, 0); err != nil {
		return err
	}
	d.mu.Lock()
	d.engineID = id
	d.materialized = true
	d.mu.Unlock()
	return nil
}

// recoverMissing re-executes the missing map partitions of the shuffle
// miss points at — the lineage-based shuffle re-execution path after an
// executor loss. Only the invalidated partitions rerun; partitions whose
// producing node survived, and anything cached or checkpointed upstream,
// are not recomputed.
func (c *Context) recoverMissing(miss *engine.MapOutputMissingError, depth int) error {
	if depth > maxLineageDepth {
		return fmt.Errorf("rdd: lineage recovery deeper than %d levels: %w", maxLineageDepth, miss)
	}
	d := c.depByEngineID(miss.Shuffle)
	if d == nil {
		return fmt.Errorf("rdd: no lineage for engine shuffle %d: %w", miss.Shuffle, miss)
	}
	missing := c.rt.Shuffle().MissingParts(miss.Shuffle)
	if len(missing) == 0 {
		return nil // healed meanwhile
	}
	c.rt.AuditRecovery("lineage-recompute", -1, float64(len(missing)),
		fmt.Sprintf("shuffle=%d missing=%v", miss.Shuffle, missing))
	tasks := c.shuffleMapTasks(d, miss.Shuffle, missing)
	return c.runStageRecovering(fmt.Sprintf("shufflemap-%d-recovery", miss.Shuffle), tasks, depth)
}

// runStageRecovering runs a stage under the engine's shared
// lineage-repair loop: a missing-map-output failure (executor loss)
// re-executes the invalidated partitions through recoverMissing and
// retries the stage; any other failure is returned as-is.
func (c *Context) runStageRecovering(name string, tasks []engine.TaskSpec, depth int) error {
	return engine.RunStageRecovering(maxStageRecoveries,
		func() error { return c.rt.RunStage(name, tasks) },
		func(miss *engine.MapOutputMissingError) error { return c.recoverMissing(miss, depth+1) })
}

// runJob materializes n's lineage and runs the result stage, delivering
// each partition's chunks to gather (called from the driver goroutine,
// in partition order; chunk contract as in chunk.go).
func (n *node) runJob(name string, gather func(part int, chunks []any) error) error {
	c := n.ctx
	c.mu.Lock()
	defer c.mu.Unlock()

	var deps []*shuffleDep
	collectDeps(n, map[*shuffleDep]bool{}, &deps)
	for _, d := range deps {
		if err := c.materialize(d); err != nil {
			return err
		}
	}

	// resMu orders result writes against the driver's read: duplicate
	// attempts of one task (speculation, or a zombie attempt outliving
	// its failed executor) may both deliver, and the late delivery must
	// neither race the winner nor the gather below.
	var resMu sync.Mutex
	results := make([][]any, n.parts)
	tasks := make([]engine.TaskSpec, n.parts)
	for p := range tasks {
		p := p
		var pref []int
		if n.preferred != nil {
			pref = n.preferred(p)
		}
		tasks[p] = engine.TaskSpec{
			Preferred: pref,
			Run: func(tc *engine.TaskContext) error {
				var chunks []any
				if err := n.iterate(p, tc, func(ch any) { chunks = append(chunks, ch) }); err != nil {
					return err
				}
				resMu.Lock()
				results[p] = chunks
				resMu.Unlock()
				return nil
			},
		}
	}
	if err := c.runStageRecovering(name, tasks, 0); err != nil {
		return err
	}
	resMu.Lock()
	final := make([][]any, n.parts)
	copy(final, results)
	resMu.Unlock()
	for p, vals := range final {
		if err := gather(p, vals); err != nil {
			return err
		}
	}
	return nil
}
