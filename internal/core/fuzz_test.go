package core

import (
	"bytes"
	"testing"
)

// FuzzLoad throws arbitrary bytes at Load. The contract under test: Load
// may reject input with an error but must never panic or hang,
// regardless of what the bytes claim about section lengths or counts.
// The corpus is seeded with valid v1 and v2 snapshots so mutation
// explores the deep section decoders, not just the magic check.
func FuzzLoad(f *testing.F) {
	c, opts := tinyCorrelator()
	var v2 bytes.Buffer
	if err := c.Save(&v2); err != nil {
		f.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := c.saveV1(&v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add([]byte("SEERDB"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := Load(data, opts)
		if err == nil && restored == nil {
			t.Error("nil correlator without error")
		}
	})
}
