package kv

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestArenaCopyProperty checks the arena contract over random records,
// including empty and oversized ones: every copy equals its input (and
// stays equal after the caller reuses its input buffer), every copy has
// cap == len, and appending to one copy leaves every other copy
// unchanged — the guarantee in-place combiners rely on.
func TestArenaCopyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(600)
		want := make([][]byte, n)
		got := make([][]byte, n)
		a := NewArena()
		buf := make([]byte, 0, 2*DefaultBlockBytes)
		for i := range want {
			size := rng.Intn(64)
			switch rng.Intn(20) {
			case 0:
				size = 0
			case 1:
				size = DefaultBlockBytes/4 + rng.Intn(DefaultBlockBytes) // dedicated allocation
			}
			buf = buf[:size]
			rng.Read(buf)
			want[i] = bytes.Clone(buf)
			if i%2 == 0 {
				got[i] = a.Copy(buf)
			} else {
				p := a.CopyPair(buf, nil)
				got[i] = p.Key
				if len(p.Value) != 0 || cap(p.Value) != 0 {
					t.Fatalf("trial %d: empty value copied as len %d cap %d", trial, len(p.Value), cap(p.Value))
				}
			}
			// The caller may reuse its buffer once Copy returns.
			for k := range buf {
				buf[k] = ^buf[k]
			}
		}
		check := func(skip int) {
			t.Helper()
			for i := range got {
				if i == skip {
					continue
				}
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("trial %d: copy %d = %x, want %x", trial, i, got[i], want[i])
				}
				if cap(got[i]) != len(got[i]) {
					t.Fatalf("trial %d: copy %d has cap %d, len %d", trial, i, cap(got[i]), len(got[i]))
				}
			}
		}
		check(-1)
		for k := 0; k < 20 && n > 0; k++ {
			j := rng.Intn(n)
			grown := append(got[j], 0xAA, 0xBB, 0xCC)
			if !bytes.Equal(grown[:len(want[j])], want[j]) {
				t.Fatalf("trial %d: append to copy %d changed its prefix", trial, j)
			}
			check(j)
		}
	}
}
