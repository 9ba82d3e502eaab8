package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hpcmr/internal/codec"
)

type kv struct {
	K int64
	V int64
}

func sampleEntry() *Entry {
	return &Entry{
		Space: "shuffle", ID: 7, Part: 3, Owner: 2,
		Chunks: []any{
			[]kv{{1, 10}, {2, 20}},
			nil, // empty bucket survives as nil
			[]int64{5, 6, 7},
			[]any{int64(9), "mixed"},
			nil,
		},
	}
}

func encodeEntry(t *testing.T, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, e); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestEntryRoundTrip(t *testing.T) {
	e := sampleEntry()
	raw := encodeEntry(t, e)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, e)
	}
}

func TestEntryFileRoundTripAndProvenance(t *testing.T) {
	e := sampleEntry()
	path := filepath.Join(t.TempDir(), "s.spill")
	n, err := WriteEntryFile(path, e)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if n <= 0 {
		t.Fatalf("wrote %d bytes", n)
	}
	got, err := ReadEntryFile(path, "shuffle", 7, 3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatal("file round trip mismatch")
	}
	// Provenance mismatches are errors: the wrong file must never serve
	// a fetch.
	if _, err := ReadEntryFile(path, "shuffle", 7, 4); err == nil {
		t.Fatal("wrong part accepted")
	}
	if _, err := ReadEntryFile(path, "cache", 7, 3); err == nil {
		t.Fatal("wrong space accepted")
	}
}

func TestEntryEmptyChunks(t *testing.T) {
	for _, e := range []*Entry{
		{Space: "cache", ID: 1, Part: 0, Owner: -1, Chunks: nil},
		{Space: "cache", ID: 1, Part: 0, Owner: -1, Chunks: []any{nil, nil, nil}},
	} {
		raw := encodeEntry(t, e)
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got.Chunks) != len(e.Chunks) {
			t.Fatalf("got %d chunks, want %d", len(got.Chunks), len(e.Chunks))
		}
		for i, ch := range got.Chunks {
			if ch != nil {
				t.Fatalf("chunk %d not nil", i)
			}
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := encodeEntry(t, sampleEntry())
	// Every proper prefix must error, never panic; no prefix may decode
	// as a complete entry.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("cut=%d: truncated entry decoded cleanly", cut)
		}
	}
}

func TestDecodeBitFlips(t *testing.T) {
	raw := encodeEntry(t, sampleEntry())
	orig := sampleEntry()
	// Flipping any single bit must yield an error or (for length-prefix
	// flips that still frame validly — impossible here since the CRC
	// covers the payload bytes the new length selects) never silently
	// corrupt data.
	for i := 0; i < len(raw)*8; i++ {
		mut := bytes.Clone(raw)
		mut[i/8] ^= 1 << (i % 8)
		got, err := Decode(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("bit %d: flip decoded cleanly to different data", i)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	raw := encodeEntry(t, sampleEntry())
	var extra bytes.Buffer
	extra.Write(raw)
	if err := codec.WriteFrame(&extra, []byte("stowaway")); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(extra.Bytes())); err == nil {
		t.Fatal("trailing frame accepted")
	}
}

func TestDecodeCorruptPrefixNoOverAllocation(t *testing.T) {
	// A header frame claiming a huge under-limit payload against a short
	// stream must fail without allocating near the claim (the codec frame
	// guarantee, inherited).
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 48<<20)
	buf.Write(hdr[:])
	buf.WriteString("short")

	allocated := allocBytes(func() {
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != io.ErrUnexpectedEOF {
			t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if allocated > 1<<20 {
		t.Fatalf("corrupt 48 MiB prefix allocated %d bytes", allocated)
	}
}

func TestDecodeFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], codec.MaxFrame+1)
	buf.Write(hdr[:])
	var tooBig *codec.ErrFrameTooLarge
	if _, err := Decode(bytes.NewReader(buf.Bytes())); !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeChecksum(t *testing.T) {
	raw := encodeEntry(t, sampleEntry())
	raw[len(raw)-1] ^= 0x01 // corrupt the last chunk's body, keep its length
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("got %v, want codec.ErrChecksum", err)
	}
}

func TestEncodeUnencodableChunk(t *testing.T) {
	e := &Entry{Space: "cache", ID: 1, Part: 0, Owner: -1,
		Chunks: []any{[]func(){func() {}}}}
	if _, err := Encode(io.Discard, e); err == nil {
		t.Fatal("function chunk encoded cleanly")
	}
}

func TestAccountantBudgetAndLRU(t *testing.T) {
	a := NewAccountant(100)
	var evicted []string
	mk := func(name string, ok bool) func() bool {
		return func() bool {
			evicted = append(evicted, name)
			return ok
		}
	}
	ha := a.Admit(40, mk("a", true))
	a.Evict()
	hb := a.Admit(40, mk("b", true))
	a.Evict()
	if got := a.Stats(); got.Resident != 80 || len(evicted) != 0 {
		t.Fatalf("under budget evicted: %+v %v", got, evicted)
	}
	a.Touch(ha) // b becomes the LRU victim
	a.Admit(40, mk("c", true))
	a.Evict()
	if want := []string{"b"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	st := a.Stats()
	if st.Resident != 80 {
		t.Fatalf("resident %d, want 80", st.Resident)
	}
	if st.Peak > 100 {
		t.Fatalf("stabilized peak %d exceeds budget", st.Peak)
	}
	// Release drops resident without an eviction.
	a.Release(ha)
	if got := a.Stats().Resident; got != 40 {
		t.Fatalf("after release: resident %d, want 40", got)
	}
	a.Release(ha) // idempotent
	_ = hb
}

func TestAccountantPinnedOnFailure(t *testing.T) {
	a := NewAccountant(50)
	calls := 0
	a.Admit(60, func() bool { calls++; return false })
	a.Evict()
	a.Evict() // pinned entries are never retried
	if calls != 1 {
		t.Fatalf("failed eviction retried: %d calls", calls)
	}
	st := a.Stats()
	if st.Resident != 60 || st.EncodeFailures != 1 {
		t.Fatalf("pinned stats: %+v", st)
	}
}

func TestAccountantUnboundedTracksPeak(t *testing.T) {
	a := NewAccountant(0)
	evictions := 0
	for i := 0; i < 5; i++ {
		a.Admit(10, func() bool { evictions++; return true })
		a.Evict()
	}
	st := a.Stats()
	if evictions != 0 || st.Resident != 50 || st.Peak != 50 {
		t.Fatalf("unbounded: evictions=%d stats=%+v", evictions, st)
	}
}

func TestAccountantCostModel(t *testing.T) {
	a := NewAccountant(1)
	a.NoteSpill(387e6) // exactly one second of the default SSD's write bandwidth
	a.NoteRestore(507e6)
	st := a.Stats()
	if st.EstSpillSeconds < 0.99 || st.EstSpillSeconds > 1.01 {
		t.Fatalf("spill seconds %v, want ~1", st.EstSpillSeconds)
	}
	if st.EstRestoreSeconds < 0.99 || st.EstRestoreSeconds > 1.01 {
		t.Fatalf("restore seconds %v, want ~1", st.EstRestoreSeconds)
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
