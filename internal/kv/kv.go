// Package kv provides the key-value record machinery shared by every
// framework in this repository: record types, binary and text codecs,
// partitioners, in-memory and external (spilling) sorters, and merge
// iterators. It corresponds to the Writable/serialization layer of Hadoop
// and the key-value pair model DataMPI's communication is built on.
//
// The package is simulation-free: engines charge simulated resources
// around these operations via callback hooks (see Sorter.OnSpill).
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Pair is one key-value record.
type Pair struct {
	Key   []byte
	Value []byte
}

// Size returns the payload bytes of the pair (excluding framing).
func (p Pair) Size() int { return len(p.Key) + len(p.Value) }

// Framing is the per-record overhead, in bytes, the engines charge for a
// pair on disk or on the wire on top of its payload.
const Framing = 6

// FramedBytes returns the framed size of pairs: each pair's Size plus
// Framing.
func FramedBytes(pairs []Pair) int {
	n := 0
	for _, p := range pairs {
		n += p.Size() + Framing
	}
	return n
}

// Clone deep-copies the pair.
func (p Pair) Clone() Pair {
	return Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
}

// String renders the pair for debugging.
func (p Pair) String() string { return fmt.Sprintf("%q=%q", p.Key, p.Value) }

// Compare orders pairs by key, then value (for stable total order).
func Compare(a, b Pair) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}

// SortPairs sorts in place by key (ties broken by value).
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool { return Compare(ps[i], ps[j]) < 0 })
}

// IsSorted reports whether ps is non-decreasing by key.
func IsSorted(ps []Pair) bool {
	for i := 1; i < len(ps); i++ {
		if bytes.Compare(ps[i-1].Key, ps[i].Key) > 0 {
			return false
		}
	}
	return true
}

// Encode appends the length-prefixed binary framing of p to dst and
// returns the extended slice. Framing: uvarint keyLen, key, uvarint
// valLen, value.
func Encode(dst []byte, p Pair) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(p.Key)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, p.Key...)
	n = binary.PutUvarint(tmp[:], uint64(len(p.Value)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, p.Value...)
	return dst
}

// EncodeAll encodes a batch of pairs.
func EncodeAll(ps []Pair) []byte {
	var out []byte
	for _, p := range ps {
		out = Encode(out, p)
	}
	return out
}

// Decode reads one pair from buf, returning the pair and remaining bytes.
func Decode(buf []byte) (Pair, []byte, error) {
	klen, n := binary.Uvarint(buf)
	if n <= 0 {
		return Pair{}, nil, fmt.Errorf("kv: bad key length varint")
	}
	buf = buf[n:]
	if uint64(len(buf)) < klen {
		return Pair{}, nil, fmt.Errorf("kv: truncated key (want %d have %d)", klen, len(buf))
	}
	key := buf[:klen]
	buf = buf[klen:]
	vlen, n := binary.Uvarint(buf)
	if n <= 0 {
		return Pair{}, nil, fmt.Errorf("kv: bad value length varint")
	}
	buf = buf[n:]
	if uint64(len(buf)) < vlen {
		return Pair{}, nil, fmt.Errorf("kv: truncated value (want %d have %d)", vlen, len(buf))
	}
	val := buf[:vlen]
	buf = buf[vlen:]
	return Pair{Key: key, Value: val}, buf, nil
}

// DecodeAll decodes the full buffer into pairs.
func DecodeAll(buf []byte) ([]Pair, error) {
	var out []Pair
	for len(buf) > 0 {
		p, rest, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		buf = rest
	}
	return out, nil
}

// Partitioner maps a key to one of n partitions.
type Partitioner interface {
	Partition(key []byte, n int) int
}

// HashPartitioner is Hadoop's default: hash(key) mod n, using FNV-1a.
type HashPartitioner struct{}

// Partition implements Partitioner. The FNV-1a round is inlined (same
// constants, same result as hash/fnv) to avoid the hasher allocation on
// the per-record emit path.
func (HashPartitioner) Partition(key []byte, n int) int {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// RangePartitioner splits the key space at precomputed boundaries,
// preserving global order across partitions — what TeraSort-style total
// order sorting uses. Boundary i is the smallest key of partition i+1.
type RangePartitioner struct {
	Boundaries [][]byte
}

// Partition implements Partitioner via binary search on the boundaries.
func (r *RangePartitioner) Partition(key []byte, n int) int {
	lo, hi := 0, len(r.Boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, r.Boundaries[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= n {
		lo = n - 1
	}
	return lo
}

// SampleBoundaries computes n-1 range boundaries from a sample of keys so
// that partitions receive roughly equal record counts.
func SampleBoundaries(sample [][]byte, n int) [][]byte {
	if n <= 1 || len(sample) == 0 {
		return nil
	}
	sorted := make([][]byte, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		idx := i * len(sorted) / n
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		bounds = append(bounds, append([]byte(nil), sorted[idx]...))
	}
	return bounds
}

// Reducer folds all values of one key into output pairs. The values
// slice is reused between keys: a reducer must not retain it after
// returning.
type Reducer func(key []byte, values [][]byte) []Pair

// GroupReduce walks sorted pairs, grouping equal keys and applying reduce.
// It returns the concatenated outputs in key order.
func GroupReduce(sorted []Pair, reduce Reducer) []Pair {
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
		out = append(out, reduce(sorted[i].Key, vals)...)
		i = j
	}
	return out
}
