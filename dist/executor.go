package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hpcmr/engine"
	"hpcmr/fault"
	"hpcmr/internal/spill"
)

// Heartbeat cadence and the driver-side liveness timeout it must beat.
const (
	DefaultHeartbeatInterval = 100 * time.Millisecond
	DefaultHeartbeatTimeout  = 1 * time.Second
)

// ExecutorConfig configures one executor process (or in-process
// executor, for tests).
type ExecutorConfig struct {
	// ID is the executor's cluster identity, 0..N-1.
	ID int
	// DriverAddr is the driver's control listener.
	DriverAddr string
	// HeartbeatInterval defaults to DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// MemoryBudget bounds the executor's resident shuffle bytes; above
	// it, least-recently-used map outputs spill to local disk. 0 keeps
	// everything resident.
	MemoryBudget int64
	// SpillDir is where a budgeted executor writes spill files; each
	// executor uses its own exec-<id> subdirectory, so one shared path
	// serves a whole node. Empty means a private temp dir, removed on
	// exit.
	SpillDir string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Executor is one worker of a distributed cluster: it registers with
// the driver, heartbeats, runs dispatched map/step/reduce tasks against a
// local shuffle store, and serves that store to peers over its shuffle
// server.
type Executor struct {
	cfg      ExecutorConfig
	store    *engine.ShuffleStore
	server   *ShuffleServer
	shuffleL net.Listener

	codec *Codec
	inj   *fault.Injector
	start time.Time

	killOnce sync.Once
	killed   chan struct{}
}

func (e *Executor) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// elapsed is the executor's fault-injection clock, seconds since it
// connected — mirroring engine.Runtime's clock so a transient plan
// replays on roughly the timeline its author wrote.
func (e *Executor) elapsed() float64 { return time.Since(e.start).Seconds() }

// Kill abruptly terminates an in-process executor: connections and the
// shuffle server drop immediately, no goodbye. It is the goroutine
// analogue of SIGKILL for tests that cannot spawn processes.
func (e *Executor) Kill() {
	e.killOnce.Do(func() {
		close(e.killed)
		if e.codec != nil {
			e.codec.Close()
		}
		if e.server != nil {
			e.server.Close()
		}
	})
}

// NewExecutor prepares an executor; Run drives it to completion.
func NewExecutor(cfg ExecutorConfig) *Executor {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	return &Executor{
		cfg:    cfg,
		store:  engine.NewShuffleStore(),
		killed: make(chan struct{}),
	}
}

// Run connects to the driver, registers, and serves tasks until the
// driver shuts the cluster down (nil), the control connection drops, or
// registration is rejected.
func (e *Executor) Run() error {
	if e.cfg.MemoryBudget > 0 {
		dir := e.cfg.SpillDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", fmt.Sprintf("hpcmr-exec%d-spill-*", e.cfg.ID))
			if err != nil {
				return fmt.Errorf("dist: executor %d spill dir: %w", e.cfg.ID, err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		} else {
			dir = filepath.Join(dir, fmt.Sprintf("exec-%d", e.cfg.ID))
		}
		store, err := engine.NewSpillingShuffleStore(spill.NewAccountant(e.cfg.MemoryBudget), dir)
		if err != nil {
			return fmt.Errorf("dist: executor %d spill store: %w", e.cfg.ID, err)
		}
		store.SetSpillAudit(func(kind string, value float64, detail string) {
			e.logf("executor %d %s %.0fB %s", e.cfg.ID, kind, value, detail)
		})
		e.store = store
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dist: executor %d shuffle listener: %w", e.cfg.ID, err)
	}
	e.shuffleL = ln
	e.server = NewShuffleServer(e.store)
	go e.server.Serve(ln)
	defer e.server.Close()

	conn, err := net.DialTimeout("tcp", e.cfg.DriverAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dist: executor %d dial driver %s: %w", e.cfg.ID, e.cfg.DriverAddr, err)
	}
	e.codec = NewCodec(conn, 0)
	defer e.codec.Close()
	e.start = time.Now()

	if err := e.codec.Send(&Hello{ID: e.cfg.ID, ShuffleAddr: ln.Addr().String()}); err != nil {
		return err
	}
	m, err := e.codec.Recv()
	if err != nil {
		return fmt.Errorf("dist: executor %d await HelloAck: %w", e.cfg.ID, err)
	}
	ack, ok := m.(*HelloAck)
	if !ok {
		return fmt.Errorf("dist: executor %d expected HelloAck, got %T", e.cfg.ID, m)
	}
	if !ack.OK {
		return fmt.Errorf("dist: executor %d registration rejected: %s", e.cfg.ID, ack.Reason)
	}
	if len(ack.TransientPlan) > 0 {
		plan, err := fault.Decode(ack.TransientPlan)
		if err != nil {
			return fmt.Errorf("dist: executor %d transient plan: %w", e.cfg.ID, err)
		}
		e.inj = fault.NewInjector(plan)
	}
	e.logf("executor %d registered: shuffle=%s driver=%s", e.cfg.ID, ln.Addr(), e.cfg.DriverAddr)

	hbDone := make(chan struct{})
	defer close(hbDone)
	go e.heartbeat(hbDone)

	for {
		m, err := e.codec.Recv()
		if err != nil {
			select {
			case <-e.killed:
				return nil
			default:
			}
			return fmt.Errorf("dist: executor %d control connection: %w", e.cfg.ID, err)
		}
		switch msg := m.(type) {
		case *RunTask:
			go e.runTask(msg)
		case *DropShuffle:
			e.store.Drop(msg.Shuffle)
		case *ShutdownReq:
			e.logf("executor %d shutting down", e.cfg.ID)
			return nil
		default:
			e.logf("executor %d ignoring %T", e.cfg.ID, m)
		}
	}
}

func (e *Executor) heartbeat(done chan struct{}) {
	t := time.NewTicker(e.cfg.HeartbeatInterval)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-done:
			return
		case <-e.killed:
			return
		case <-t.C:
			seq++
			if err := e.codec.Send(&Heartbeat{ID: e.cfg.ID, Seq: seq}); err != nil {
				return
			}
		}
	}
}

// runTask executes one dispatched attempt and reports TaskDone. It runs
// on its own goroutine: the engine's executor workers already bound
// per-executor parallelism driver-side, so dispatch order is the only
// contract here.
func (e *Executor) runTask(t *RunTask) {
	done := e.execute(t)
	done.Seq = t.Seq
	if err := e.codec.Send(done); err != nil {
		e.logf("executor %d task seq=%d report failed: %v", e.cfg.ID, t.Seq, err)
	}
}

func (e *Executor) execute(t *RunTask) *TaskDone {
	// The one place a report is built: -1 is "none" for both sentinels.
	done := &TaskDone{MissMapPart: -1, UnreachableExec: -1}
	now := e.elapsed()
	if e.inj != nil {
		if d := e.inj.HangDuration(e.cfg.ID, now); d > 0 {
			time.Sleep(time.Duration(d * float64(time.Second)))
		}
		if err := e.inj.TaskFailure(e.cfg.ID, t.Part, now); err != nil {
			done.Err = err.Error()
			return done
		}
	}
	started := time.Now()
	job, err := LookupJob(t.Spec.Job)
	if err == nil {
		switch t.Kind {
		case KindMap:
			err = e.runMap(t, job, done)
		case KindReduce:
			err = e.runReduce(t, job, done)
		default:
			err = fmt.Errorf("dist: unknown task kind %q", t.Kind)
		}
	}
	if err != nil {
		done.Err = err.Error()
	}
	if e.inj != nil {
		if f := e.inj.SlowFactor(e.cfg.ID, now); f > 1 {
			// The injector's slow factor divides effective speed; stretch
			// the attempt's wall time to match.
			time.Sleep(time.Duration(float64(time.Since(started)) * (f - 1)))
		}
	}
	return done
}

// runMap executes one task that writes a generation of the job's chain
// into the local store: Job.Map for generation 0, or Job.Step for
// superstep t.Step, which first gathers generation t.Step-1 (under the
// stable partitioner and locality placement nearly all of it is
// self-owned, so the gather is the zero-copy path).
func (e *Executor) runMap(t *RunTask, job Job, done *TaskDone) error {
	var out MapOutput
	var err error
	mapParts := t.Spec.MapParts
	if t.Step == 0 {
		out, err = job.Map(t.Spec, t.Part)
	} else {
		if job.Step == nil {
			return fmt.Errorf("dist: job %q has no step function", t.Spec.Job)
		}
		mapParts = t.Spec.ReduceParts
		var chunks []any
		if chunks, err = e.gather(t, done); err != nil {
			return err
		}
		out, err = job.Step(t.Spec, t.Step, t.Part, chunks)
	}
	if err != nil {
		return err
	}
	if err := e.store.RegisterWithID(t.Shuffle, mapParts, t.Spec.ReduceParts); err != nil {
		return err
	}
	if err := e.store.PutChunksFrom(t.Shuffle, t.Part, e.cfg.ID, out.Buckets); err != nil {
		return err
	}
	done.Records, done.Bytes = out.Records, out.Bytes
	done.BucketBytes = bucketVolumes(out.Buckets)
	return nil
}

// runReduce gathers the task's partition of the last generation and
// merges it into the encoded result.
func (e *Executor) runReduce(t *RunTask, job Job, done *TaskDone) error {
	chunks, err := e.gather(t, done)
	if err != nil {
		return err
	}
	done.Result, err = job.Reduce(t.Spec, t.Part, chunks)
	return err
}

// gather fetches the task's partition of t.GatherShuffle from the
// owners in t.Locations, timing the fetch into done and classifying a
// missing map output so the driver engages lineage recovery.
func (e *Executor) gather(t *RunTask, done *TaskDone) ([]any, error) {
	start := time.Now()
	chunks, err := e.fetch(t.GatherShuffle, t.Locations, t.Part, done)
	done.FetchSeconds = time.Since(start).Seconds()
	var miss *engine.MapOutputMissingError
	if errors.As(err, &miss) {
		done.Miss, done.MissShuffle, done.MissMapPart = true, miss.Shuffle, miss.MapPart
	}
	return chunks, err
}

// fetch pulls every map partition's chunk of reduce partition part
// from the given shuffle: the executor's own partitions come zero-copy
// from the local store; each remote peer is asked once for all of its
// partitions in one batched request, under the engine's bounded
// retry/backoff. locations must cover map partitions 0..len-1. A peer
// unreachable after retries is reported via done.UnreachableExec so
// the driver can treat the fetch failure as executor loss.
func (e *Executor) fetch(shuffle int, locations []Loc, part int, done *TaskDone) ([]any, error) {
	chunks := make([]any, len(locations))
	byOwner := make(map[int][]Loc)
	for _, loc := range locations {
		if loc.Exec < 0 {
			return nil, &engine.MapOutputMissingError{Shuffle: shuffle, MapPart: loc.MapPart}
		}
		byOwner[loc.Exec] = append(byOwner[loc.Exec], loc)
	}
	owners := make([]int, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, owner := range owners {
		locs := byOwner[owner]
		if owner == e.cfg.ID {
			for _, loc := range locs {
				ch, err := e.store.FetchChunk(shuffle, loc.MapPart, part)
				if err != nil {
					return nil, err
				}
				chunks[loc.MapPart] = ch
				r, b := engine.ChunkVolume(ch)
				done.LocalRecords += r
				done.LocalBytes += b
			}
			continue
		}
		parts := make([]int, len(locs))
		for i, loc := range locs {
			parts[i] = loc.MapPart
		}
		addr := locs[0].Addr
		var fetched []any
		err := engine.RetryFetch(defaultFetchRetries, defaultFetchBackoff,
			func(attempt int, backoff time.Duration, last error) {
				e.logf("executor %d fetch retry %d against executor %d (%s): %v",
					e.cfg.ID, attempt, owner, addr, last)
			},
			func() error {
				if e.inj != nil {
					if err := e.inj.FetchFailure(e.cfg.ID, e.elapsed()); err != nil {
						return err
					}
				}
				var ferr error
				fetched, ferr = FetchPeerChunks(addr, shuffle, part, parts)
				return ferr
			})
		if err != nil {
			var miss *engine.MapOutputMissingError
			if !errors.As(err, &miss) {
				done.UnreachableExec = owner
			}
			return nil, err
		}
		for i, loc := range locs {
			chunks[loc.MapPart] = fetched[i]
			r, b := engine.ChunkVolume(fetched[i])
			done.RemoteRecords += r
			done.RemoteBytes += b
		}
	}
	return chunks, nil
}

// Executor-side fetch retry bounds, mirroring the engine's config
// defaults (MaxFetchRetries 3, backoff 2ms doubling).
const (
	defaultFetchRetries = 3
	defaultFetchBackoff = 2 * time.Millisecond
)

// bucketVolumes measures each bucket chunk's in-memory volume — the
// per-reduce-bucket weights the driver records against its placeholder
// ownership row for locality scoring.
func bucketVolumes(buckets []any) []int64 {
	out := make([]int64, len(buckets))
	for i, ch := range buckets {
		if ch == nil {
			continue
		}
		_, b := engine.ChunkVolume(ch)
		out[i] = b
	}
	return out
}
