package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The traced run takes a CPU profile of itself and splits it by module,
// the only way to attribute host time inside Engine.Run without
// in-program tracing. The profile is the gzipped pprof protobuf that
// runtime/pprof writes; the few fields the split needs are decoded here
// by hand rather than pulling in a profile library.

const repoPath = "github.com/datampi/datampi-go"

// moduleOf names the repository module a function belongs to: the
// internal package name, "datampi" for the public API, "bench" for this
// benchmark, "runtime" for the Go runtime, "" for anything else.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, repoPath+"/internal/"):
		rest := fn[len(repoPath+"/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, repoPath+"."):
		return "datampi"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "runtime."):
		return "runtime"
	}
	return ""
}

// attribute picks the module charged for one sample, given its frames
// leaf first: a sample whose leaf is in the Go runtime (allocation, GC,
// scheduling) is the runtime's; otherwise the nearest repository frame
// owns it, so standard-library helpers (sort, bytes, regexp, maps) count
// toward the module that called them.
func attribute(frames []string) string {
	if len(frames) > 0 && moduleOf(frames[0]) == "runtime" {
		return "runtime"
	}
	for _, f := range frames {
		if m := moduleOf(f); m != "" && m != "runtime" {
			return m
		}
	}
	return "other"
}

// cpuSplit accumulates CPU nanoseconds per module over one or more
// profiles.
type cpuSplit struct {
	nanos   map[string]float64
	total   float64
	samples int
}

func newCPUSplit() *cpuSplit { return &cpuSplit{nanos: map[string]float64{}} }

func (s *cpuSplit) share(module string) float64 {
	if s.total == 0 {
		return 0
	}
	return s.nanos[module] / s.total
}

// add decodes one gzipped CPU profile. Samples whose "phase" label is
// set and not one of phases are skipped; unlabeled samples (GC workers
// and other runtime threads) are kept.
func (s *cpuSplit) add(gz []byte, phases ...string) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]int64
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []sample
	)
	err = pbFields(raw, func(num, typ int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var sm sample
			err := pbFields(data, func(num, typ int, v uint64, data []byte) error {
				switch num {
				case 1:
					sm.locs = append(sm.locs, pbUints(typ, v, data)...)
				case 2:
					sm.vals = append(sm.vals, pbUints(typ, v, data)...)
				case 3:
					var kv [2]int64
					err := pbFields(data, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					sm.labels = append(sm.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, sm)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, typ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(data, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	keep := func(sm sample) bool {
		for _, l := range sm.labels {
			if str(l[0]) != "phase" {
				continue
			}
			for _, p := range phases {
				if str(l[1]) == p {
					return true
				}
			}
			return false
		}
		return true
	}
	for _, sm := range samples {
		if len(sm.vals) == 0 || !keep(sm) {
			continue
		}
		var frames []string
		for _, l := range sm.locs {
			for _, f := range locs[l] {
				frames = append(frames, str(funcs[f]))
			}
		}
		ns := float64(sm.vals[len(sm.vals)-1]) // cpu nanoseconds
		s.nanos[attribute(frames)] += ns
		s.total += ns
		s.samples++
	}
	return nil
}

var errProto = errors.New("perfbench: malformed profile")

// pbFields walks the fields of one protobuf message.
func pbFields(b []byte, fn func(num, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated varint field, packed or not.
func pbUints(typ int, v uint64, data []byte) []uint64 {
	if typ != 2 {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
