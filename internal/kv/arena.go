package kv

import "sync"

// Record batching: instead of allocating two byte slices per emitted
// record (the dominant allocation source in the figure benchmarks), an
// Arena copies record bytes into reusable block buffers and hands out
// sub-slices. A block holds hundreds of records, so the steady-state
// allocation rate of the map-output, shuffle and merge paths drops from
// O(records) to O(bytes / block size).
//
// Ownership: records alias arena blocks, so a block lives as long as any
// record cut from it — the GC reclaims blocks naturally when the records
// die. Release returns blocks to the shared pool early and is only safe
// in airtight lifecycles where no record escapes; engines that publish
// records (map outputs, cached partitions, MPI payloads) must never call
// it.
//
// Every sub-slice is cut with a full-capacity bound (three-index
// slicing), so appending to one record's bytes can never clobber a
// neighbouring record — in-place combiners rely on this.

// DefaultBlockBytes is the arena block size. It intentionally matches
// the order of magnitude of the testbed's block-size knob's sort-buffer
// slices: big enough to amortize, small enough not to strand memory.
const DefaultBlockBytes = 64 << 10

// blockPool recycles arena blocks released by airtight lifecycles.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, 0, DefaultBlockBytes)
	return &b
}}

// Arena is a bump allocator over pooled blocks. The zero value is
// ready.
type Arena struct {
	cur  []byte    // block being filled
	held []*[]byte // pool-origin blocks retained for Release
}

// NewArena returns a fresh arena.
func NewArena() *Arena { return &Arena{} }

// Copy copies b into the arena and returns a capacity-bounded sub-slice.
func (a *Arena) Copy(b []byte) []byte {
	n := len(b)
	if n > cap(a.cur)-len(a.cur) {
		if n >= DefaultBlockBytes/4 {
			// Oversized record: dedicated allocation, current block kept.
			out := make([]byte, n)
			copy(out, b)
			return out[:n:n]
		}
		bp := blockPool.Get().(*[]byte)
		a.cur = (*bp)[:0]
		a.held = append(a.held, bp)
	}
	off := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[off : off+n : off+n]
}

// CopyPair copies one record into the arena.
func (a *Arena) CopyPair(key, value []byte) Pair {
	return Pair{Key: a.Copy(key), Value: a.Copy(value)}
}

// Release returns every block to the shared pool. Only safe when no
// record cut from this arena is still referenced.
func (a *Arena) Release() {
	for _, bp := range a.held {
		*bp = (*bp)[:0]
		blockPool.Put(bp)
	}
	a.held = nil
	a.cur = nil
}
