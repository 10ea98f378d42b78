package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzDecodeFrame throws arbitrary bytes at DecodeFrame, the decoder of
// every replication HTTP body. It must never panic, must refuse any
// payload over maxFrame, must agree with itself when the body arrives
// one byte per read, and must accept only frames that re-encode to the
// bytes they were read from.
func FuzzDecodeFrame(f *testing.F) {
	valid, err := EncodeFrame("msg", func(w *Writer) {
		w.U64(7)
		w.Str("hello")
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeFrame("msg", func(*Writer) {})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(0))
	f.Add(valid, uint16(4))
	f.Add(empty, uint16(1))
	f.Add([]byte("\x03msg\xff\xff\xff\xff\x0f"), uint16(0))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, maxFrame uint16) {
		decode := func(src io.Reader) ([]byte, error) {
			var payload []byte
			err := DecodeFrame(src, "msg", uint64(maxFrame), func(r *Reader) error {
				payload = bytes.Clone(r.buf)
				return nil
			})
			return payload, err
		}
		payload, err := decode(bytes.NewReader(data))
		payload1, err1 := decode(iotest.OneByteReader(bytes.NewReader(data)))
		if (err == nil) != (err1 == nil) || !bytes.Equal(payload, payload1) {
			t.Fatalf("one-byte reads disagree: %v / %v", err, err1)
		}
		if err != nil {
			return
		}
		if maxFrame > 0 && len(payload) > int(maxFrame) {
			t.Fatalf("accepted a %d-byte payload over maxFrame %d", len(payload), maxFrame)
		}
		again, err := EncodeFrame("msg", func(w *Writer) { w.bw.Write(payload) })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nfrom %x", again, data)
		}
	})
}
