// Package wire provides the small binary encoding layer used to persist
// SEER's correlator database (paper §5.3 notes that storing the
// database on disk "would be relatively simple"; this is that code).
//
// The format is little-endian with varint integers and length-prefixed
// strings. Writers and readers carry sticky errors so call sites stay
// linear.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// castagnoli is the CRC32-C polynomial table used for frame checksums
// (hardware-accelerated on most platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes values.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush completes the stream.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.bw.Write(buf[:n])
}

// I64 writes a signed varint (zig-zag).
func (w *Writer) I64(v int64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, w.err = w.bw.Write(buf[:n])
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean byte.
func (w *Writer) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	w.U64(b)
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.bw.WriteString(s)
}

// Frame writes a CRC32-framed section: a tag string, the payload length
// as a varint, the payload bytes produced by body, and a CRC32-C of the
// payload. Readers can verify a frame's integrity before decoding its
// contents, so a flipped bit inside a section is detected as corruption
// rather than silently misparsed.
func (w *Writer) Frame(tag string, body func(*Writer)) {
	if w.err != nil {
		return
	}
	var buf bytes.Buffer
	sub := NewWriter(&buf)
	body(sub)
	if err := sub.Flush(); err != nil {
		w.err = err
		return
	}
	payload := buf.Bytes()
	w.Str(tag)
	w.U64(uint64(len(payload)))
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return
	}
	w.U64(uint64(crc32.Checksum(payload, castagnoli)))
}

// EncodeFrame renders one CRC32-framed message to a byte slice — the
// request/response framing used by the networked replication substrate
// (each HTTP body is exactly one frame, so a truncated or corrupted
// transfer is detected before any field is trusted).
func EncodeFrame(tag string, body func(*Writer)) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Frame(tag, body)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeFrame reads one frame with the expected tag from r (typically
// an HTTP request or response body) and decodes it with body. maxFrame
// bounds the payload allocation; 0 keeps the Reader default.
func DecodeFrame(r io.Reader, tag string, maxFrame uint64, body func(*Reader) error) error {
	rd := NewReader(r)
	if maxFrame > 0 {
		rd.MaxFrame = maxFrame
	}
	return rd.Frame(tag, body)
}

var (
	// errOverflow reports a varint longer than any 64-bit value needs.
	errOverflow = errors.New("binary: varint overflows a 64-bit integer")
	// errOverlong reports a varint with a redundant zero high byte.
	// Writer never emits one, so every value has one encoding and an
	// accepted frame re-encodes to the bytes it was read from.
	errOverlong = errors.New("wire: varint has a redundant high byte")
)

const (
	// refillSize is the window a stream is read into.
	refillSize = 4096
	// payloadChunk is the least a streamed frame payload's window grows
	// by, however few of its bytes have arrived.
	payloadChunk = 64 * 1024
	// maxEmptyReads cuts off a stream that keeps returning nothing.
	maxEmptyReads = 100
)

// Reader deserializes values written by Writer. Every value is decoded
// straight from a byte slice: the whole input for NewBytesReader, or a
// window that NewReader's stream refills when a value runs past its end.
type Reader struct {
	// buf holds the bytes not yet decoded.
	buf []byte
	// src refills buf; nil when buf is the whole input.
	src io.Reader
	// store backs buf for a stream.
	store []byte
	// srcErr is the stream's terminal error (io.EOF at its end).
	srcErr error
	err    error
	// MaxString bounds string allocations against corrupt input.
	MaxString uint64
	// MaxFrame bounds frame payload sizes against corrupt input.
	MaxFrame uint64
}

// NewReader returns a Reader on the stream r.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, MaxString: 1 << 20, MaxFrame: 1 << 30}
}

// NewBytesReader returns a Reader on b, which it decodes in place: a
// frame's payload is a sub-slice of b, and b must not change while the
// Reader is in use.
func NewBytesReader(b []byte) *Reader {
	return &Reader{buf: b, MaxString: 1 << 20, MaxFrame: 1 << 30}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// SizeHint caps count, a number of elements read off the input, by how
// many elements of at least minBytes bytes each the undecoded bytes
// held by r can still encode. Decoders presize their tables with it, so
// a lying count cannot allocate past the input actually present. For a
// stream only the buffered bytes count, so the hint may fall short.
func (r *Reader) SizeHint(count, minBytes int) int {
	return max(0, min(count, len(r.buf)/minBytes))
}

// read does one Read of the stream into p and records its error.
func (r *Reader) read(p []byte) int {
	for i := 0; i < maxEmptyReads; i++ {
		n, err := r.src.Read(p)
		if err != nil {
			r.srcErr = err
		}
		if n > 0 || err != nil {
			return n
		}
	}
	r.srcErr = io.ErrNoProgress
	return 0
}

// fill refills buf from the stream until it holds at least n bytes and
// reports whether it does. The window grows only when n exceeds it.
func (r *Reader) fill(n int) bool {
	for len(r.buf) < n {
		if r.src == nil || r.srcErr != nil {
			return false
		}
		if cap(r.buf) < n {
			if len(r.store) < n {
				r.store = make([]byte, max(n, refillSize))
			}
			r.buf = r.store[:copy(r.store, r.buf)]
		}
		m := r.read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+m]
	}
	return true
}

// short is the error for input that ended inside a value: the stream's
// own failure, else io.EOF when none of the value was present and
// io.ErrUnexpectedEOF when part of it was.
func (r *Reader) short(partial bool) error {
	switch {
	case r.srcErr != nil && r.srcErr != io.EOF:
		return r.srcErr
	case partial:
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	for {
		if len(r.buf) > 0 && r.buf[0] < 0x80 {
			v := r.buf[0]
			r.buf = r.buf[1:]
			return uint64(v)
		}
		v, n := binary.Uvarint(r.buf)
		if n > 0 {
			if r.buf[n-1] == 0 {
				r.err = errOverlong
				return 0
			}
			r.buf = r.buf[n:]
			return v
		}
		if n < 0 || len(r.buf) >= binary.MaxVarintLen64 {
			r.err = errOverflow
			return 0
		}
		if !r.fill(len(r.buf) + 1) {
			r.err = r.short(len(r.buf) > 0)
			return 0
		}
	}
}

// I64 reads a signed (zig-zag) varint.
func (r *Reader) I64() int64 {
	u := r.U64()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// Frame reads a section written by Writer.Frame, verifies the tag and
// the CRC32-C checksum, and invokes body with a Reader over the payload.
// Any frame-level failure (wrong tag, truncation, checksum mismatch)
// and any error returned by body become the result; the outer reader's
// sticky error is set as well so callers can stay linear.
//
// An in-memory payload is decoded where it lies. A streamed one is read
// into a window that grows only as its bytes arrive, so an adversarial
// length header cannot force a huge allocation: reading fails as soon
// as the stream runs dry.
func (r *Reader) Frame(tag string, body func(*Reader) error) error {
	if r.err != nil {
		return r.err
	}
	fail := func(err error) error {
		r.err = err
		return err
	}
	got := r.Str()
	if r.err != nil {
		return fmt.Errorf("wire: section %q: %w", tag, r.err)
	}
	if got != tag {
		return fail(fmt.Errorf("wire: section %q: found %q instead", tag, got))
	}
	n := r.U64()
	if r.err != nil {
		return fmt.Errorf("wire: section %q: %w", tag, r.err)
	}
	if n > r.MaxFrame {
		return fail(fmt.Errorf("wire: section %q: length %d exceeds limit %d", tag, n, r.MaxFrame))
	}
	payload, err := r.take(n)
	if err != nil {
		return fail(fmt.Errorf("wire: section %q: %w", tag, err))
	}
	want := r.U64()
	if r.err != nil {
		return fmt.Errorf("wire: section %q: %w", tag, r.err)
	}
	if sum := uint64(crc32.Checksum(payload, castagnoli)); sum != want {
		return fail(fmt.Errorf("wire: section %q: checksum mismatch (got %#x, want %#x)", tag, sum, want))
	}
	sub := NewBytesReader(payload)
	sub.MaxString = r.MaxString
	sub.MaxFrame = r.MaxFrame
	if err := body(sub); err != nil {
		return fail(err)
	}
	if sub.Err() != nil {
		return fail(sub.Err())
	}
	return nil
}

// take returns the next n bytes. For an in-memory input they are a
// sub-slice of it. A stream refills its window until the window holds
// them, growing it by doubling as bytes arrive, so a corrupt length only
// costs memory for bytes actually present in the stream; the window
// then belongs to the returned bytes and the next refill takes a fresh one.
func (r *Reader) take(n uint64) ([]byte, error) {
	for uint64(len(r.buf)) < n {
		if !r.fill(int(min(n, max(2*uint64(len(r.buf)), payloadChunk)))) {
			return nil, r.short(true)
		}
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	r.store = nil
	return p, nil
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > r.MaxString {
		r.err = fmt.Errorf("wire: string length %d exceeds limit %d", n, r.MaxString)
		return ""
	}
	if !r.fill(int(n)) {
		r.err = r.short(len(r.buf) > 0)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}
