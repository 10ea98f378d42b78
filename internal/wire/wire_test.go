package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(-1)
	w.I64(math.MinInt64)
	w.Int(42)
	w.F64(3.14159)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.Str("")
	w.Str("héllo wörld")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if r.U64() != 0 || r.U64() != math.MaxUint64 {
		t.Error("u64")
	}
	if r.I64() != -1 || r.I64() != math.MinInt64 {
		t.Error("i64")
	}
	if r.Int() != 42 {
		t.Error("int")
	}
	if r.F64() != 3.14159 || !math.IsInf(r.F64(), -1) {
		t.Error("f64")
	}
	if !r.Bool() || r.Bool() {
		t.Error("bool")
	}
	if r.Str() != "" || r.Str() != "héllo wörld" {
		t.Error("str")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	// Reading past the end yields an error.
	r.U64()
	if r.Err() == nil {
		t.Error("no error past end")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, b bool, s string) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.U64(u)
		w.I64(i)
		w.F64(fl)
		w.Bool(b)
		w.Str(s)
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		gotU, gotI, gotF, gotB, gotS := r.U64(), r.I64(), r.F64(), r.Bool(), r.Str()
		if r.Err() != nil {
			return false
		}
		sameF := gotF == fl || (math.IsNaN(gotF) && math.IsNaN(fl))
		return gotU == u && gotI == i && sameF && gotB == b && gotS == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 30) // claims a gigabyte-long string
	w.Flush()
	r := NewReader(&buf)
	r.Str()
	if r.Err() == nil {
		t.Error("oversized string accepted")
	}
}

func TestStickyWriteError(t *testing.T) {
	w := NewWriter(failingWriter{})
	for i := 0; i < 100000; i++ {
		w.U64(uint64(i))
	}
	if w.Flush() == nil {
		t.Fatal("no error from failing writer")
	}
	w.Str("after error")
	if w.Err() == nil {
		t.Error("error not sticky")
	}
}

func TestStickyReadError(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	r.U64()
	if r.Err() == nil {
		t.Fatal("no error on empty input")
	}
	if r.Str() != "" || r.Bool() || r.F64() != 0 || r.Int() != 0 {
		t.Error("reads after error not zero")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func frameBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Frame("hdr", func(w *Writer) {
		w.U64(7)
		w.Str("payload")
	})
	w.Frame("tail", func(w *Writer) {
		w.Int(-3)
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	data := frameBytes(t)
	r := NewReader(bytes.NewReader(data))
	err := r.Frame("hdr", func(sr *Reader) error {
		if sr.U64() != 7 || sr.Str() != "payload" {
			t.Error("hdr payload mangled")
		}
		return sr.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Frame("tail", func(sr *Reader) error {
		if sr.Int() != -3 {
			t.Error("tail payload mangled")
		}
		return sr.Err()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameDetectsBitFlips(t *testing.T) {
	data := frameBytes(t)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(data)
			flipped[i] ^= 1 << bit
			r := NewReader(bytes.NewReader(flipped))
			err1 := r.Frame("hdr", func(sr *Reader) error {
				sr.U64()
				sr.Str()
				return sr.Err()
			})
			err2 := r.Frame("tail", func(sr *Reader) error {
				sr.Int()
				return sr.Err()
			})
			if err1 == nil && err2 == nil {
				t.Fatalf("flip of byte %d bit %d undetected", i, bit)
			}
		}
	}
}

func TestFrameDetectsTruncation(t *testing.T) {
	data := frameBytes(t)
	for n := 0; n < len(data); n++ {
		r := NewReader(bytes.NewReader(data[:n]))
		err1 := r.Frame("hdr", func(sr *Reader) error { return nil })
		err2 := r.Frame("tail", func(sr *Reader) error { return nil })
		if err1 == nil && err2 == nil {
			t.Fatalf("truncation at %d undetected", n)
		}
	}
}

func TestFrameWrongTag(t *testing.T) {
	data := frameBytes(t)
	r := NewReader(bytes.NewReader(data))
	if err := r.Frame("other", func(sr *Reader) error { return nil }); err == nil {
		t.Error("wrong tag accepted")
	}
}

func TestFrameLengthBounded(t *testing.T) {
	// A frame claiming an enormous payload must fail fast without a
	// matching allocation.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Str("hdr")
	w.U64(1 << 40)
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.MaxFrame = 1 << 50 // the stream, not the limit, must stop it
	if err := r.Frame("hdr", func(sr *Reader) error { return nil }); err == nil {
		t.Error("lying length accepted")
	}

	r = NewReader(bytes.NewReader(buf.Bytes()))
	if err := r.Frame("hdr", func(sr *Reader) error { return nil }); err == nil {
		t.Error("length above MaxFrame accepted")
	}
}

func TestFrameBodyErrorSticky(t *testing.T) {
	data := frameBytes(t)
	r := NewReader(bytes.NewReader(data))
	if err := r.Frame("hdr", func(sr *Reader) error { return io.ErrClosedPipe }); err != io.ErrClosedPipe {
		t.Fatalf("body error not propagated: %v", err)
	}
	if r.Err() != io.ErrClosedPipe {
		t.Error("body error not sticky on outer reader")
	}
}

func TestEncodeDecodeFrame(t *testing.T) {
	b, err := EncodeFrame("msg", func(w *Writer) {
		w.U64(7)
		w.Str("hello")
	})
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	var s string
	err = DecodeFrame(bytes.NewReader(b), "msg", 0, func(r *Reader) error {
		v = r.U64()
		s = r.Str()
		return r.Err()
	})
	if err != nil || v != 7 || s != "hello" {
		t.Errorf("round trip = %d %q %v", v, s, err)
	}

	// Wrong tag refused.
	if err := DecodeFrame(bytes.NewReader(b), "other", 0, func(r *Reader) error { return nil }); err == nil {
		t.Error("wrong tag accepted")
	}
	// Bit flip refused.
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x10
		if err := DecodeFrame(bytes.NewReader(bad), "msg", 0, func(r *Reader) error {
			r.U64()
			r.Str()
			return r.Err()
		}); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	// maxFrame enforced.
	if err := DecodeFrame(bytes.NewReader(b), "msg", 1, func(r *Reader) error { return nil }); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestOverlongVarintRejected(t *testing.T) {
	// 0x80 0x00 and 0x81 0x00 decode to 0 and 1 but are not what
	// Writer emits; accepting them would give a frame two encodings.
	for _, in := range [][]byte{{0x80, 0x00}, {0x81, 0x00}, {0xff, 0x80, 0x00}} {
		for _, r := range []*Reader{NewBytesReader(in), NewReader(bytes.NewReader(in))} {
			r.U64()
			if r.Err() == nil {
				t.Errorf("overlong varint %x accepted", in)
			}
		}
	}
}

func TestBytesReaderMatchesStream(t *testing.T) {
	// The in-memory and the stream reader decode one byte slice the
	// same way, at every truncation, with the same io.EOF versus
	// io.ErrUnexpectedEOF distinction.
	data := frameBytes(t)
	decode := func(r *Reader) (uint64, string, int, error) {
		var v uint64
		var s string
		var n int
		r.Frame("hdr", func(sr *Reader) error {
			v, s = sr.U64(), sr.Str()
			return sr.Err()
		})
		r.Frame("tail", func(sr *Reader) error {
			n = sr.Int()
			return sr.Err()
		})
		return v, s, n, r.Err()
	}
	for n := 0; n <= len(data); n++ {
		v1, s1, i1, err1 := decode(NewBytesReader(data[:n]))
		v2, s2, i2, err2 := decode(NewReader(iotest.OneByteReader(bytes.NewReader(data[:n]))))
		if v1 != v2 || s1 != s2 || i1 != i2 || errors.Is(err1, io.EOF) != errors.Is(err2, io.EOF) ||
			errors.Is(err1, io.ErrUnexpectedEOF) != errors.Is(err2, io.ErrUnexpectedEOF) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("prefix %d: bytes %d %q %d %v, stream %d %q %d %v", n, v1, s1, i1, err1, v2, s2, i2, err2)
		}
	}
	// Str's io.EOF versus io.ErrUnexpectedEOF follows io.ReadFull.
	for _, c := range []struct {
		in   []byte
		want error
	}{{[]byte{3}, io.EOF}, {[]byte{3, 'a'}, io.ErrUnexpectedEOF}, {[]byte{0x80}, io.ErrUnexpectedEOF}, {nil, io.EOF}} {
		for _, r := range []*Reader{NewBytesReader(c.in), NewReader(bytes.NewReader(c.in))} {
			r.Str()
			if r.Err() != c.want {
				t.Errorf("Str on %x: %v, want %v", c.in, r.Err(), c.want)
			}
		}
	}
}
