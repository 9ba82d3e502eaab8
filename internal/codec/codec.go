// Package codec is the one byte format of the real runtime: the frame
// that carries every control message and shuffle response over the
// wire, every spill-file section, and every checkpoint part, plus the
// value encoding inside it.
//
// A frame is a 4-byte big-endian payload length, a 4-byte CRC32 (IEEE)
// of the payload, then the payload. Reads are bounded: a length prefix
// over the limit is rejected before anything is allocated, and the
// buffer grows in fixed steps as bytes actually arrive, so a corrupt
// prefix becomes an error instead of an allocation. Writes enforce the
// same ceiling, so nothing is written that could not be read back.
//
// A value is encoded as a self-contained gob stream — encoder state is
// never shared across frames — so each frame decodes on its own and a
// lost frame cannot corrupt its successors. Interface-typed fields
// (boxed chunks, wire messages) need their concrete types registered;
// Register does that once per type and turns gob's panics into errors.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"sync"
)

// MaxFrame bounds a single frame's payload (64 MiB) — far above any
// control message, shuffle response or spilled chunk the runtime moves,
// and the ceiling that turns a corrupt length prefix into an error.
const MaxFrame = 64 << 20

// growStep caps how much ReadFrame allocates ahead of the bytes actually
// arriving: a truncated stream whose prefix claims a huge payload costs
// one step of memory, not the claim.
const growStep = 64 << 10

// ErrFrameTooLarge rejects a frame whose payload exceeds the limit: on
// read the body is never allocated or read, on write nothing is written.
type ErrFrameTooLarge struct {
	Length, Max int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("codec: frame of %d bytes exceeds limit %d", e.Length, e.Max)
}

// ErrChecksum reports a frame whose payload does not match its CRC32.
var ErrChecksum = errors.New("codec: frame checksum mismatch")

// WriteFrame writes one frame. A payload over MaxFrame returns
// *ErrFrameTooLarge and writes nothing.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return &ErrFrameTooLarge{Length: len(payload), Max: MaxFrame}
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame, allocating at most
// max bytes for the payload (max <= 0 means MaxFrame). A length prefix
// over max returns *ErrFrameTooLarge without reading the body; a
// truncated prefix or body returns io.ErrUnexpectedEOF (io.EOF when the
// stream ends cleanly between frames); a payload failing its checksum
// returns ErrChecksum. An empty payload comes back nil.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint32(hdr[:4]))
	sum := binary.BigEndian.Uint32(hdr[4:])
	if length > max {
		return nil, &ErrFrameTooLarge{Length: length, Max: max}
	}
	var payload []byte
	if length > 0 {
		payload = make([]byte, 0, min(length, growStep))
	}
	for len(payload) < length {
		off := len(payload)
		payload = append(payload, make([]byte, min(length-off, growStep))...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrChecksum
	}
	return payload, nil
}

// Marshal encodes v as one self-contained gob stream. The encoding is
// deterministic for a given type and value.
func Marshal(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, fmt.Errorf("codec: encode %T: %w", v, err)
	}
	return b.Bytes(), nil
}

// Unmarshal decodes one stream written by Marshal into v, converting any
// decoder panic into an error (defense in depth over gob's own
// hardening).
func Unmarshal(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("codec: decode %T: gob panic: %v", v, r)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("codec: decode %T: %w", v, err)
	}
	return nil
}

// WriteValue marshals v into one frame on w.
func WriteValue(w io.Writer, v any) error {
	payload, err := Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// ReadValue reads one frame of at most MaxFrame bytes from r and
// unmarshals it into v. Frame errors (io.EOF between frames included)
// come back unwrapped.
func ReadValue(r io.Reader, v any) error {
	payload, err := ReadFrame(r, MaxFrame)
	if err != nil {
		return err
	}
	return Unmarshal(payload, v)
}

// The registry is process-global (gob's is), deduplicated here.
var (
	regMu      sync.Mutex
	registered = map[reflect.Type]bool{}
)

// Register records the concrete type of each value so it round-trips
// through an interface-typed field. For a []any value each element's
// type is registered too. gob.Register panics on name collisions; that
// comes back as an error, so an unencodable chunk fails its encode
// instead of the process.
func Register(vs ...any) (err error) {
	regMu.Lock()
	defer regMu.Unlock()
	var cur any
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("codec: registering type %T: %v", cur, r)
		}
	}()
	reg := func(v any) {
		t := reflect.TypeOf(v)
		if t == nil || registered[t] {
			return
		}
		cur = v
		gob.Register(v)
		registered[t] = true
	}
	for _, v := range vs {
		reg(v)
		if boxed, ok := v.([]any); ok {
			for _, e := range boxed {
				reg(e)
			}
		}
	}
	return nil
}
