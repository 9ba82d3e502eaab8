// Package spill is the two-level storage layer under the engine's
// memory budget: a spill-file format that moves chunk lists between
// memory and a local spill directory (the paper's RAMDisk→SSD step of
// the storage hierarchy), and an LRU accountant that decides what to
// move when resident bytes exceed the budget.
//
// A spill file is a sequence of internal/codec frames: length-prefixed,
// CRC32-checked and read with bounded incremental allocation, so a
// corrupt length prefix or a bit-flipped body surfaces as an error the
// engine repairs through lineage, never as silently wrong data.
//
// One spill file holds one Entry: the provenance header (which space,
// which shuffle/node, which partition, which owner produced it) and one
// frame per non-empty chunk. Chunks are typed slices boxed in
// interfaces, exactly as the shuffle store and rdd cache hold them;
// their concrete types are registered with the codec on first encode. A
// chunk the codec cannot encode (unexported fields, functions, a frame
// over codec.MaxFrame) fails the encode cleanly — the accountant then
// pins the entry resident instead of spilling it.
package spill

import (
	"errors"
	"fmt"
	"io"
	"os"

	"hpcmr/internal/codec"
)

// MaxChunks bounds an entry's bucket count (reduce partitions), so a
// corrupt header cannot force a large chunk-slice allocation.
const MaxChunks = 1 << 14

// Entry is one spilled unit: a chunk list with its provenance. For the
// shuffle store, ID/Part/Owner are the engine shuffle ID, map partition,
// and producing executor; for the rdd cache, ID is the plan-node ID,
// Part the partition, and Owner -1.
type Entry struct {
	Space string // "shuffle", "cache" or "checkpoint"
	ID    int
	Part  int
	Owner int
	// Chunks is the per-bucket chunk list, nil where a bucket is empty.
	Chunks []any
}

// header is the first frame of a spill file.
type header struct {
	Space   string
	ID      int
	Part    int
	Owner   int
	NChunks int // len(Entry.Chunks), nils included
	Frames  int // non-nil chunk frames that follow
}

// chunkFrame carries one non-nil chunk and its bucket index.
type chunkFrame struct {
	Index int
	Chunk any
}

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Encode writes one entry to w and returns the bytes written. A chunk
// the codec cannot encode, or whose frame would exceed codec.MaxFrame,
// returns an error with nothing guaranteed about partial output — callers write to a temporary file and discard
// it on error.
func Encode(w io.Writer, e *Entry) (int64, error) {
	if len(e.Chunks) > MaxChunks {
		return 0, fmt.Errorf("spill: %d chunks exceeds limit %d", len(e.Chunks), MaxChunks)
	}
	cw := &countingWriter{w: w}
	frames := 0
	for _, ch := range e.Chunks {
		if ch != nil {
			frames++
		}
	}
	if err := codec.WriteValue(cw, header{
		Space: e.Space, ID: e.ID, Part: e.Part, Owner: e.Owner,
		NChunks: len(e.Chunks), Frames: frames,
	}); err != nil {
		return cw.n, err
	}
	for i, ch := range e.Chunks {
		if ch == nil {
			continue
		}
		if err := codec.Register(ch); err != nil {
			return cw.n, err
		}
		if err := codec.WriteValue(cw, chunkFrame{Index: i, Chunk: ch}); err != nil {
			return cw.n, fmt.Errorf("spill: encoding chunk %d (%T): %w", i, ch, err)
		}
	}
	return cw.n, nil
}

// Decode reads one entry written by Encode. Truncation, corrupt length
// prefixes, checksum mismatches, malformed gob, out-of-range or
// duplicate chunk indices, and trailing garbage all return errors;
// Decode never panics and never allocates past MaxChunks interface
// slots ahead of validated frames.
func Decode(r io.Reader) (*Entry, error) {
	var h header
	if err := readValue(r, &h); err != nil {
		return nil, err
	}
	if h.NChunks < 0 || h.NChunks > MaxChunks || h.Frames < 0 || h.Frames > h.NChunks {
		return nil, fmt.Errorf("spill: header claims %d chunks, %d frames", h.NChunks, h.Frames)
	}
	e := &Entry{Space: h.Space, ID: h.ID, Part: h.Part, Owner: h.Owner, Chunks: make([]any, h.NChunks)}
	for f := 0; f < h.Frames; f++ {
		var cf chunkFrame
		if err := readValue(r, &cf); err != nil {
			return nil, err
		}
		if cf.Index < 0 || cf.Index >= h.NChunks {
			return nil, fmt.Errorf("spill: chunk index %d out of %d buckets", cf.Index, h.NChunks)
		}
		if e.Chunks[cf.Index] != nil {
			return nil, fmt.Errorf("spill: duplicate chunk index %d", cf.Index)
		}
		if cf.Chunk == nil {
			return nil, fmt.Errorf("spill: chunk frame %d carries no chunk", f)
		}
		e.Chunks[cf.Index] = cf.Chunk
	}
	if _, err := codec.ReadFrame(r, codec.MaxFrame); err != io.EOF {
		if err == nil {
			return nil, errors.New("spill: trailing frame after entry")
		}
		return nil, err
	}
	return e, nil
}

// readValue reads one frame into v; a stream ending where a frame must
// follow is truncation.
func readValue(r io.Reader, v any) error {
	if err := codec.ReadValue(r, v); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

// WriteEntryFile encodes e to path via a temporary sibling and rename,
// so readers never observe a half-written spill file. Returns the bytes
// written.
func WriteEntryFile(path string, e *Entry) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := Encode(f, e)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// ReadEntryFile decodes the entry at path and validates its provenance
// against what the caller expects to find there.
func ReadEntryFile(path, space string, id, part int) (*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("spill: %s: %w", path, err)
	}
	if e.Space != space || e.ID != id || e.Part != part {
		return nil, fmt.Errorf("spill: %s holds %s/%d/%d, want %s/%d/%d",
			path, e.Space, e.ID, e.Part, space, id, part)
	}
	return e, nil
}
