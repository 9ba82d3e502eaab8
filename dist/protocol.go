// Package dist is the distributed driver–executor runtime: it splits
// the engine into a real driver process and N executor processes
// talking over TCP, with a network shuffle service between the
// executors.
//
// The wire unit is the chunk contract of PR-5: map output buckets are
// typed slices boxed once, stored in each executor's local
// engine.ShuffleStore and served to remote reducers by a per-executor
// shuffle server. The driver schedules stages on its existing
// engine.Runtime — each remote executor is one engine executor whose
// task bodies proxy over the control connection — so executor loss
// flows through the engine's sticky dead set and InvalidateOwner
// provenance exactly as in the local runtime, and lineage recovery
// re-executes only the invalidated partitions of the job's generation
// chain.
//
// Transport is a hand-rolled length-prefixed framed codec carrying gob
// payloads (frame.go); liveness is registration plus periodic
// heartbeats with a timeout-driven monitor (liveness.go); jobs are
// named computations both binaries compile in (job.go), since closures
// cannot cross a process boundary. The driver runs every job through
// one generation loop (driver.go): a map stage, zero or more superstep
// stages, and a final reduce, each stage gathering the previous one's
// shuffle.
package dist

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
)

// ---- control-plane messages (driver <-> executor, client -> driver) ----

// Hello registers an executor with the driver: its claimed ID and the
// address its shuffle server listens on.
type Hello struct {
	ID          int
	ShuffleAddr string
}

// HelloAck accepts or rejects a registration. On acceptance it carries
// the cluster geometry and the JSON-encoded transient fault plan (slow,
// fetch-loss, task-fail, hang events) the executor must replay
// in-process; crash events stay driver-side where they become real
// process kills.
type HelloAck struct {
	OK            bool
	Reason        string
	Executors     int
	TransientPlan []byte
}

// Heartbeat is the executor's periodic liveness beacon.
type Heartbeat struct {
	ID  int
	Seq uint64
}

// Loc tells a reduce task where one map partition's output lives.
type Loc struct {
	MapPart int
	Exec    int
	Addr    string
}

// RunTask dispatches one task attempt to an executor. A KindMap task
// writes generation Step of the job's chain into Shuffle: Step 0 runs
// Job.Map, Step g ≥ 1 runs Job.Step over its partition of
// GatherShuffle (generation g-1). A KindReduce task runs Job.Reduce
// over its partition of GatherShuffle (the last generation). Locations
// is set for every task that gathers and lists each gathered map
// partition's owner as of dispatch time.
type RunTask struct {
	Seq           uint64
	Kind          string
	Spec          JobSpec
	Shuffle       int
	Part          int
	Attempt       int
	Step          int
	GatherShuffle int
	Locations     []Loc
}

// Task kinds.
const (
	KindMap    = "map"
	KindReduce = "reduce"
)

// TaskDone reports one task attempt's outcome back to the driver.
type TaskDone struct {
	Seq uint64
	// Err is the attempt's failure, "" on success.
	Err string
	// Miss is set when the failure was missing map output: the task's
	// gather found an invalidated partition. The driver surfaces
	// it as an engine.MapOutputMissingError so lineage recovery engages.
	Miss        bool
	MissShuffle int
	MissMapPart int
	// UnreachableExec (-1 none) reports a peer whose shuffle server
	// could not be reached after bounded retries — the fetch-failure
	// signal the driver treats as an executor loss.
	UnreachableExec int
	// Records/Bytes are the shuffle volume a map or step task wrote.
	Records int64
	Bytes   int64
	// BucketBytes is the written volume per reduce bucket — the weights
	// the driver records against its placeholder ownership row so
	// locality scoring can rank owners without holding the data.
	BucketBytes []int64
	// Local*/Remote* split a gathering task's fetched volume by path: local
	// chunks came zero-copy from the executor's own store, remote ones
	// over the network shuffle service.
	LocalRecords, LocalBytes   int64
	RemoteRecords, RemoteBytes int64
	// FetchSeconds is the gathering task's total fetch wall time.
	FetchSeconds float64
	// Result is a reduce task's encoded output partition.
	Result []byte
}

// DropShuffle tells executors a shuffle's data is no longer needed.
type DropShuffle struct {
	Shuffle int
}

// SubmitJob asks a running driver (over its client listener) to run a
// job; JobResult answers it.
type SubmitJob struct {
	Spec JobSpec
}

// JobResult carries a submitted job's encoded result or failure.
type JobResult struct {
	Err    string
	Result []byte
}

// ShutdownReq asks a running driver to tear the cluster down;
// ShutdownAck confirms before the driver exits.
type ShutdownReq struct{}

// ShutdownAck acknowledges a ShutdownReq.
type ShutdownAck struct{}

// ---- data-plane messages (executor <-> executor) ----

// ShuffleReq asks a peer's shuffle server for the chunks of one reduce
// partition across the map partitions that peer owns.
type ShuffleReq struct {
	Shuffle    int
	ReducePart int
	MapParts   []int
}

// ShuffleResp answers a ShuffleReq. Chunks aligns with the request's
// MapParts (nil entries are empty buckets). Miss reports the first
// requested map partition the server does not hold — the remote form of
// engine.MapOutputMissingError. Err covers every other failure.
type ShuffleResp struct {
	Err         string
	Miss        bool
	MissMapPart int
	Chunks      []any
}

// KV is the chunk record of integer-keyed built-in jobs (keyed-sum).
type KV struct {
	K, V int64
}

// SKV is the chunk record of string-keyed built-in jobs (wordcount).
type SKV struct {
	K string
	V int64
}

func init() {
	// Control and data messages travel as a gob interface value inside
	// wireMsg; every concrete type must be registered, including the
	// chunk element types the built-in jobs shuffle and the primitive
	// types a []any chunk may carry.
	gob.Register(&Hello{})
	gob.Register(&HelloAck{})
	gob.Register(&Heartbeat{})
	gob.Register(&RunTask{})
	gob.Register(&TaskDone{})
	gob.Register(&DropShuffle{})
	gob.Register(&SubmitJob{})
	gob.Register(&JobResult{})
	gob.Register(&ShutdownReq{})
	gob.Register(&ShutdownAck{})
	gob.Register(&ShuffleReq{})
	gob.Register(&ShuffleResp{})
	gob.Register([]KV(nil))
	gob.Register([]SKV(nil))
	gob.Register([]any(nil))
	gob.Register([]int64(nil))
	gob.Register([]string(nil))
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register(string(""))
	gob.Register(bool(false))
}

// wireMsg wraps every message so gob carries the concrete type.
type wireMsg struct {
	M any
}

// Codec frames gob-encoded messages over a connection. Each frame is a
// self-contained gob stream (encoder state is not shared across
// frames), so a frame can be decoded in isolation and a dropped frame
// cannot corrupt its successors. Sends are serialized by an internal
// mutex — heartbeats, task results, and shuffle responses may share one
// connection from several goroutines; Recv must be called from a single
// reader goroutine.
type Codec struct {
	conn net.Conn
	r    *bufio.Reader
	max  int

	wmu sync.Mutex
	wb  bytes.Buffer
}

// NewCodec wraps a connection; maxFrame <= 0 uses DefaultMaxFrame.
func NewCodec(conn net.Conn, maxFrame int) *Codec {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Codec{conn: conn, r: bufio.NewReader(conn), max: maxFrame}
}

// Send gob-encodes m into one frame and writes it.
func (c *Codec) Send(m any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wb.Reset()
	if err := gob.NewEncoder(&c.wb).Encode(wireMsg{M: m}); err != nil {
		return fmt.Errorf("dist: encode %T: %w", m, err)
	}
	if c.wb.Len() > c.max {
		return &ErrFrameTooLarge{Length: c.wb.Len(), Max: c.max}
	}
	return WriteFrame(c.conn, c.wb.Bytes())
}

// Recv reads and decodes the next frame.
func (c *Codec) Recv() (any, error) {
	payload, err := ReadFrame(c.r, c.max)
	if err != nil {
		return nil, err
	}
	var w wireMsg
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		return nil, fmt.Errorf("dist: decode frame: %w", err)
	}
	return w.M, nil
}

// Close closes the underlying connection.
func (c *Codec) Close() error { return c.conn.Close() }

// RemoteAddr names the peer, for logs.
func (c *Codec) RemoteAddr() string { return c.conn.RemoteAddr().String() }
