package kv

import (
	"bytes"
)

// Combiner merges the values of one key into a smaller set of values,
// used for map-side aggregation (Hadoop's combiner, Spark's map-side
// combine, DataMPI's local aggregation). The values slice (and the
// slices it holds) is reused between keys: a combiner may rewrite it in
// place but must not retain it after returning.
type Combiner func(key []byte, values [][]byte) [][]byte

// SumCombiner adds decimal-encoded integer values — the WordCount
// combiner. It rewrites the first value slot in place (records carry
// capacity-bounded byte slices, so the append cannot touch a
// neighbouring record) instead of allocating a fresh container per key.
func SumCombiner(key []byte, values [][]byte) [][]byte {
	total := int64(0)
	for _, v := range values {
		total += parseInt(v)
	}
	values[0] = AppendInt(values[0][:0], total)
	return values[:1]
}

func parseInt(b []byte) int64 {
	neg := false
	i := 0
	if len(b) > 0 && b[0] == '-' {
		neg = true
		i = 1
	}
	var n int64
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			break
		}
		n = n*10 + int64(b[i]-'0')
	}
	if neg {
		return -n
	}
	return n
}

// ParseInt decodes a decimal-encoded integer value.
func ParseInt(b []byte) int64 { return parseInt(b) }

// FormatInt encodes an integer as decimal bytes.
func FormatInt(n int64) []byte { return AppendInt(nil, n) }

// AppendInt appends the decimal encoding of n to dst.
func AppendInt(dst []byte, n int64) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

// CombineSorted applies a combiner to a key-sorted run in place,
// returning the combined (still sorted) pairs.
func CombineSorted(sorted []Pair, combine Combiner) []Pair {
	if combine == nil {
		return sorted
	}
	var out []Pair
	var vals [][]byte // scratch, reused across groups
	i := 0
	for i < len(sorted) {
		j := i + 1
		for j < len(sorted) && bytes.Equal(sorted[j].Key, sorted[i].Key) {
			j++
		}
		vals = vals[:0]
		for k := i; k < j; k++ {
			vals = append(vals, sorted[k].Value)
		}
		for _, v := range combine(sorted[i].Key, vals) {
			out = append(out, Pair{Key: sorted[i].Key, Value: v})
		}
		i = j
	}
	return out
}

// Sorter is an external sorter with a bounded in-memory buffer: pairs are
// accumulated, sorted (and optionally combined) into runs when the buffer
// fills, and merged on Finish. It models Hadoop's map-output buffer
// (io.sort.mb) and reduce-side merges.
//
// The OnSpill hook fires with the byte size of each spilled run so the
// engine can charge simulated disk I/O; OnSortCPU fires with the number of
// records sorted so CPU can be charged.
type Sorter struct {
	BufferBytes int // spill threshold in actual bytes (0 = never spill)
	Combine     Combiner

	OnSpill   func(runBytes int) // called when a run leaves memory
	OnSortCPU func(records int)  // called when a buffer is sorted

	buf      []Pair
	bufBytes int
	runs     [][]Pair
	spills   int
}

// Add appends a record, spilling if the buffer threshold is crossed.
func (s *Sorter) Add(p Pair) {
	s.buf = append(s.buf, p)
	s.bufBytes += p.Size()
	if s.BufferBytes > 0 && s.bufBytes >= s.BufferBytes {
		s.spill()
	}
}

// Spills reports how many runs were spilled to disk.
func (s *Sorter) Spills() int { return s.spills }

func (s *Sorter) spill() {
	if len(s.buf) == 0 {
		return
	}
	if s.OnSortCPU != nil {
		s.OnSortCPU(len(s.buf))
	}
	SortPairs(s.buf)
	run := CombineSorted(s.buf, s.Combine)
	runBytes := 0
	for _, p := range run {
		runBytes += p.Size()
	}
	s.runs = append(s.runs, run)
	s.spills++
	if s.OnSpill != nil {
		s.OnSpill(runBytes)
	}
	s.buf = nil
	s.bufBytes = 0
}

// Finish sorts the remaining buffer and merges all runs into one sorted,
// combined stream. MergeBytes reports the bytes that flowed through the
// final merge from spilled runs (engines charge a disk read for them).
func (s *Sorter) Finish() (out []Pair, mergeBytes int) {
	if len(s.buf) > 0 {
		if s.OnSortCPU != nil {
			s.OnSortCPU(len(s.buf))
		}
		SortPairs(s.buf)
		run := CombineSorted(s.buf, s.Combine)
		s.runs = append(s.runs, run)
		s.buf = nil
		s.bufBytes = 0
	}
	if len(s.runs) == 0 {
		return nil, 0
	}
	if len(s.runs) == 1 {
		return s.runs[0], 0
	}
	for i, r := range s.runs {
		if i == len(s.runs)-1 {
			continue // the last (in-memory) run was never spilled
		}
		for _, p := range r {
			mergeBytes += p.Size()
		}
	}
	merged := MergeRuns(s.runs)
	merged = CombineSorted(merged, s.Combine)
	s.runs = nil
	return merged, mergeBytes
}

// mergeCursor tracks one run's position in the k-way merge heap.
type mergeCursor struct {
	run int
	idx int
}

// MergeRuns performs a k-way merge of sorted runs into one sorted
// slice. One cursor per run sits in a hand-rolled binary heap — no
// container/heap interface boxing, so the merge allocates the cursor
// slice and the output and nothing else. The heap order is
// (pair, run index), the same total order the merge has always used, so
// the output is byte-identical.
func MergeRuns(runs [][]Pair) []Pair {
	total := 0
	h := make([]mergeCursor, 0, len(runs))
	for ri, r := range runs {
		total += len(r)
		if len(r) > 0 {
			h = append(h, mergeCursor{run: ri})
		}
	}
	less := func(a, b mergeCursor) bool {
		if c := Compare(runs[a.run][a.idx], runs[b.run][b.idx]); c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
	siftDown := func(i int) {
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < len(h) && less(h[l], h[s]) {
				s = l
			}
			if r < len(h) && less(h[r], h[s]) {
				s = r
			}
			if s == i {
				return
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Pair, 0, total)
	for len(h) > 0 {
		top := h[0]
		out = append(out, runs[top.run][top.idx])
		if top.idx+1 < len(runs[top.run]) {
			h[0].idx++
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(0)
		}
	}
	return out
}
