package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, growStep),     // exactly one grow step
		make([]byte, growStep+1),   // spills into a second step
		make([]byte, 3*growStep-7), // several steps, ragged tail
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, p := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(p) == 0 {
			if got != nil {
				t.Fatalf("frame %d: empty payload came back as %d bytes", i, len(got))
			}
			continue
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, bytes.Repeat([]byte("q"), 500)); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix except the empty one must error with
	// ErrUnexpectedEOF (the empty prefix is a clean end-of-stream).
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), 0)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 1<<30)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20)
	var tooBig *ErrFrameTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if tooBig.Length != 1<<30 || tooBig.Max != 1<<20 {
		t.Fatalf("ErrFrameTooLarge fields: %+v", tooBig)
	}
}

// TestFrameCorruptPrefixNoOverAllocation pins the incremental-growth
// guarantee: a prefix claiming a huge (but under-limit) payload against
// a short stream must fail without allocating anywhere near the claim.
func TestFrameCorruptPrefixNoOverAllocation(t *testing.T) {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 48<<20) // claims 48 MiB, under the 64 MiB default
	buf.Write(hdr[:])
	buf.WriteString("only these bytes exist")

	allocated := allocBytes(func() {
		if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 0); err != io.ErrUnexpectedEOF {
			t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if allocated > 1<<20 {
		t.Fatalf("corrupt 48 MiB prefix allocated %d bytes; growth cap is %d per step", allocated, growStep)
	}
}

func TestFrameChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x01 // corrupt the body, keep the length
	if _, err := ReadFrame(bytes.NewReader(raw), 0); err != ErrChecksum {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

// TestWriteFrameTooLarge pins the writer's half of the ceiling: a
// payload the reader would reject is refused up front, with nothing
// written, so no frame on the wire or on disk is unreadable.
func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, MaxFrame+1))
	var tooBig *ErrFrameTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if tooBig.Length != MaxFrame+1 || tooBig.Max != MaxFrame {
		t.Fatalf("ErrFrameTooLarge fields: %+v", tooBig)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frame wrote %d bytes", buf.Len())
	}
}

type rec struct {
	K string
	V int64
}

// TestValueRoundTrip sends registered concrete types through an
// interface field, one self-contained frame each, and reads them back
// in order.
func TestValueRoundTrip(t *testing.T) {
	type boxed struct{ V any }
	vals := []any{[]rec{{"a", 1}, {"b", 2}}, []any{int64(7), "seven"}, []int64{3}}
	if err := Register(vals...); err != nil {
		t.Fatal(err)
	}
	if err := Register(vals...); err != nil { // deduplicated, not re-registered
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, v := range vals {
		if err := WriteValue(&buf, boxed{V: v}); err != nil {
			t.Fatalf("write %T: %v", v, err)
		}
	}
	for i, want := range vals {
		var got boxed
		if err := ReadValue(&buf, &got); err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.V, want) {
			t.Fatalf("value %d: got %#v, want %#v", i, got.V, want)
		}
	}
	if err := ReadValue(&buf, new(boxed)); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var out []rec
	if err := Unmarshal([]byte{1, 2, 3}, &out); err == nil {
		t.Fatal("garbage decoded cleanly")
	}
	if _, err := Marshal(func() {}); err == nil {
		t.Fatal("function encoded cleanly")
	}
}

// allocBytes measures heap bytes allocated while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame feeds arbitrary byte streams through ReadFrame: it must
// never panic, never over-allocate past the stream, and any payload it
// does return must round-trip back through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	var seedFrame bytes.Buffer
	WriteFrame(&seedFrame, []byte("seed payload"))
	f.Add(seedFrame.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4, 'a', 'b'})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, 1<<20)
			if err != nil {
				var tooBig *ErrFrameTooLarge
				if err != io.EOF && err != io.ErrUnexpectedEOF && err != ErrChecksum && !errors.As(err, &tooBig) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte stream", len(payload), len(data))
			}
			var back bytes.Buffer
			if werr := WriteFrame(&back, payload); werr != nil {
				t.Fatalf("re-encode: %v", werr)
			}
			got, rerr := ReadFrame(bytes.NewReader(back.Bytes()), 1<<20)
			if rerr != nil {
				t.Fatalf("round-trip read: %v", rerr)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("round-trip payload mismatch")
			}
		}
	})
}

// FuzzFrameRoundTrip drives the forward direction: any payload written
// by WriteFrame must come back byte-identical through ReadFrame —
// including back-to-back frames on one stream — and must be rejected
// with ErrFrameTooLarge (never a panic or short read) when the
// reader's limit is below the payload size.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil), []byte("second"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("payload"), []byte(nil))
	f.Add(bytes.Repeat([]byte{0xa5}, growStep+3), []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, a); err != nil {
			t.Fatalf("write a: %v", err)
		}
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatalf("write b: %v", err)
		}
		stream := append([]byte(nil), buf.Bytes()...)

		for i, want := range [][]byte{a, b} {
			got, err := ReadFrame(&buf, 0)
			if err != nil {
				t.Fatalf("read frame %d: %v", i, err)
			}
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("frame %d: empty payload came back as %d bytes", i, len(got))
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: round-trip mismatch (%d vs %d bytes)", i, len(got), len(want))
			}
		}
		if _, err := ReadFrame(&buf, 0); err != io.EOF {
			t.Fatalf("stream end: got %v, want io.EOF", err)
		}

		// An undersized reader limit must reject frame a cleanly.
		if len(a) > 1 {
			_, err := ReadFrame(bytes.NewReader(stream), len(a)-1)
			var tooBig *ErrFrameTooLarge
			if !errors.As(err, &tooBig) {
				t.Fatalf("limit %d on %d-byte payload: got %v, want ErrFrameTooLarge", len(a)-1, len(a), err)
			}
		}
	})
}
