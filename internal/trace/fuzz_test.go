package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzTextReader asserts the text codec reader never panics and either
// errors or round-trips cleanly.
func FuzzTextReader(f *testing.F) {
	f.Add(`1 1000 2 3 open "/a" "" "cc" false 1000`)
	f.Add("# comment\n\n")
	f.Add(`1 1000 2 3 open "unterminated`)
	f.Add(`x y z`)
	f.Fuzz(func(t *testing.T, src string) {
		evs, err := NewReader(strings.NewReader(src)).ReadAll()
		if err != nil {
			return
		}
		// Whatever parsed must re-encode and re-parse identically.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, ev := range evs {
			if err := w.Write(ev); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if len(again) != len(evs) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(evs))
		}
		for i := range evs {
			if again[i].String() != evs[i].String() {
				t.Fatalf("round trip changed event %d", i)
			}
		}
	})
}

// FuzzBinaryReader asserts the binary codec reader never panics on
// corrupt input, and that it reads the same events and the same
// verdict when the stream hands it one byte per read, so every refill
// boundary is crossed.
func FuzzBinaryReader(f *testing.F) {
	var valid bytes.Buffer
	bw := NewBinaryWriter(&valid)
	for _, e := range sampleEvents() {
		bw.Write(e)
	}
	bw.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("\x07SEERTRC\x01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := NewBinaryReader(bytes.NewReader(data)).ReadAll()
		slow, slowErr := NewBinaryReader(iotest.OneByteReader(bytes.NewReader(data))).ReadAll()
		if (err == nil) != (slowErr == nil) || len(evs) != len(slow) {
			t.Fatalf("one-byte reads disagree: %d events, %v / %d events, %v", len(evs), err, len(slow), slowErr)
		}
		for i := range evs {
			if evs[i] != slow[i] {
				t.Fatalf("one-byte reads disagree on event %d", i)
			}
		}
		if err != nil {
			return
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq < evs[i-1].Seq {
				t.Fatal("binary reader produced decreasing sequence")
			}
		}
	})
}
