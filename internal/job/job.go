// Package job defines the engine-agnostic description of a batch
// key-value job — input file, map function, combiner, reducer,
// partitioner — together with input-format record readers and a
// sequential reference executor used to verify every engine's output.
//
// The three engines (internal/mr, internal/rdd, internal/core) all accept
// a job.Spec, so each BigDataBench workload is written once and runs on
// Hadoop-like MapReduce, the Spark-like RDD engine, and DataMPI.
package job

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sim"
)

// Format identifies how block bytes decode into records.
type Format int

const (
	// Text records are newline-separated lines; the map key is nil.
	Text Format = iota
	// Seq records are kv-encoded pairs (BigDataBench sequence files).
	Seq
	// SeqGzip records are kv-encoded pairs compressed with gzip, as
	// produced by BigDataBench's ToSeqFile with GzipCodec (the Normal
	// Sort input).
	SeqGzip
)

func (f Format) String() string {
	switch f {
	case Text:
		return "text"
	case Seq:
		return "seq"
	case SeqGzip:
		return "seq+gzip"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// Emit passes one intermediate record out of a map function.
type Emit func(key, value []byte)

// MapFunc transforms one input record into intermediate records.
type MapFunc func(key, value []byte, emit Emit)

// Spec describes a job independently of the engine that runs it.
type Spec struct {
	Name        string
	FS          *dfs.FS
	Input       *dfs.File
	InputFormat Format
	Output      string // output file path ("" = discard)
	Reducers    int

	Map     MapFunc
	Combine kv.Combiner // optional map-side aggregation
	Reduce  kv.Reducer  // nil = identity (emit pairs as grouped)
	Part    kv.Partitioner

	// MapCPUFactor and ReduceCPUFactor scale the engines' per-byte CPU
	// cost relative to plain record parsing (1.0). K-means distance
	// computation, for example, is far more CPU-intensive per byte than
	// Sort's identity map.
	MapCPUFactor    float64
	ReduceCPUFactor float64

	// EngineCPUFactor further scales per-byte CPU cost for a specific
	// engine (keyed by Engine.Name()). The paper transplants Mahout's
	// actuating logic and data structures into its DataMPI applications
	// (Section 4.6), which keeps some JVM-era inefficiency in DataMPI's
	// application code; workloads model that here.
	EngineCPUFactor map[string]float64

	// SaturatingIntermediate declares that the job's intermediate and
	// output data sizes are bounded by key cardinality (a vocabulary, a
	// pattern set, a cluster count) rather than growing with the input —
	// true for WordCount, Grep, Naive Bayes counting and K-means partial
	// sums, false for Sort. Under data scaling (DESIGN.md) such data is
	// charged at its true, unscaled size; scaling it with the input would
	// overcharge aggregates by orders of magnitude. Normalize defaults it
	// to "a combiner is present", which holds for every BigDataBench
	// workload in this suite.
	SaturatingIntermediate bool

	// identityReduce records that Reduce was defaulted by Normalize, so
	// engines can skip the per-key grouping entirely: identity reduction
	// of a key-sorted slice is the slice itself.
	identityReduce bool
}

// Normalize fills defaults in place.
func (s *Spec) Normalize() {
	if s.Reducers <= 0 {
		s.Reducers = 1
	}
	if s.Part == nil {
		s.Part = kv.HashPartitioner{}
	}
	if s.MapCPUFactor <= 0 {
		s.MapCPUFactor = 1
	}
	if s.ReduceCPUFactor <= 0 {
		s.ReduceCPUFactor = 1
	}
	if s.Reduce == nil {
		s.Reduce = IdentityReduce
		s.identityReduce = true
	}
	if s.Combine != nil {
		s.SaturatingIntermediate = true
	}
}

// CPUAdjust returns the engine-specific CPU multiplier (1 by default).
func (s *Spec) CPUAdjust(engineName string) float64 {
	if f, ok := s.EngineCPUFactor[engineName]; ok && f > 0 {
		return f
	}
	return 1
}

// EmitScale returns the nominal-bytes multiplier for intermediate and
// output data: the filesystem scale for volume-preserving jobs (Sort), or
// 1 for saturating aggregations.
func (s *Spec) EmitScale() float64 {
	if s.SaturatingIntermediate {
		return 1
	}
	if s.FS != nil {
		return s.FS.Config().Scale
	}
	return 1
}

// IdentityReduce emits each value under its key unchanged.
func IdentityReduce(key []byte, values [][]byte) []kv.Pair {
	out := make([]kv.Pair, 0, len(values))
	for _, v := range values {
		out = append(out, kv.Pair{Key: key, Value: v})
	}
	return out
}

// HasIdentityReduce reports whether the (normalized) spec's reducer is
// the defaulted identity.
func (s *Spec) HasIdentityReduce() bool { return s.identityReduce }

// GroupReduce applies the spec's reducer to a key-sorted slice. For the
// defaulted identity reducer it returns sorted unchanged — identity
// reduction re-emits every (key, value) in grouping order, which for a
// key-sorted input is exactly the input — saving one Pair allocation
// per unique key on sort-shaped workloads.
func (s *Spec) GroupReduce(sorted []kv.Pair) []kv.Pair {
	if s.identityReduce {
		return sorted
	}
	return kv.GroupReduce(sorted, s.Reduce)
}

// Result reports a finished job.
type Result struct {
	Engine  string
	Job     string
	Start   float64 // simulated start time
	End     float64
	Elapsed float64
	// Phases maps engine phase names ("map", "shuffle+reduce", "O", "A",
	// "stage0", "stage1", ...) to their durations.
	Phases     map[string]float64
	OutputFile *dfs.File
	OutRecords int64
	// Counters holds engine execution statistics: task counts, locality,
	// shuffle volume (nominal bytes), spills — the observability surface
	// of a JobTracker UI.
	Counters map[string]int64
	Err      error
}

// AddCounter increments a named counter, allocating the map lazily.
func (r *Result) AddCounter(name string, n int64) {
	if r.Counters == nil {
		r.Counters = map[string]int64{}
	}
	r.Counters[name] += n
}

// String summarizes the result.
func (r Result) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%s %s FAILED after %.1fs: %v", r.Engine, r.Job, r.Elapsed, r.Err)
	}
	return fmt.Sprintf("%s %s %.1fs", r.Engine, r.Job, r.Elapsed)
}

// Engine runs jobs on the simulated cluster.
type Engine interface {
	Name() string
	Run(spec Spec) Result
}

// Records decodes a block's bytes into records according to the format.
// It returns the records and the decoded ("inflated") byte count, which
// differs from len(data) for compressed formats.
func Records(format Format, data []byte) (pairs []kv.Pair, inflated int, err error) {
	switch format {
	case Text:
		lines := splitLines(data)
		pairs = make([]kv.Pair, 0, len(lines))
		for _, ln := range lines {
			pairs = append(pairs, kv.Pair{Key: nil, Value: ln})
		}
		return pairs, len(data), nil
	case Seq:
		ps, err := kv.DecodeAll(data)
		return ps, len(data), err
	case SeqGzip:
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, 0, fmt.Errorf("job: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, 0, fmt.Errorf("job: gunzip: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, 0, err
		}
		ps, err := kv.DecodeAll(raw)
		return ps, len(raw), err
	default:
		return nil, 0, fmt.Errorf("job: unknown format %v", format)
	}
}

// splitLines splits on '\n', dropping a trailing empty line.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			out = append(out, data)
			break
		}
		out = append(out, data[:i])
		data = data[i+1:]
	}
	return out
}

// EncodeTextOutput renders reduced pairs the way Hadoop's TextOutputFormat
// does: "key\tvalue\n" (empty values render as just the key).
func EncodeTextOutput(pairs []kv.Pair) []byte {
	var buf bytes.Buffer
	for _, p := range pairs {
		buf.Write(p.Key)
		if len(p.Value) > 0 {
			buf.WriteByte('\t')
			buf.Write(p.Value)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// WriteTextOutput writes pairs in TextOutputFormat to a new DFS file
// name created on node, each actual byte charged as scale nominal bytes.
func WriteTextOutput(p *sim.Proc, fs *dfs.FS, name string, node int, scale float64, pairs []kv.Pair) error {
	w := fs.CreateScaled(name, node, scale)
	if err := w.Write(p, EncodeTextOutput(pairs)); err != nil {
		return err
	}
	return w.Close(p)
}

// ReadTextOutput gathers a job's output part files (files whose names
// start with prefix) and parses TextOutputFormat lines back into pairs.
// It reads metadata directly without charging simulated time; intended for
// verification, not for simulated dataflow.
func ReadTextOutput(fsys *dfs.FS, prefix string) []kv.Pair {
	var out []kv.Pair
	for _, f := range fsys.ListPrefix(prefix) {
		// Concatenate the file's blocks before splitting: output writers
		// flush at block boundaries that may fall mid-line.
		var data []byte
		for _, blk := range f.Blocks {
			data = append(data, blk.Data...)
		}
		for _, line := range splitLines(data) {
			if len(line) == 0 {
				continue
			}
			if i := bytes.IndexByte(line, '\t'); i >= 0 {
				out = append(out, kv.Pair{Key: append([]byte(nil), line[:i]...), Value: append([]byte(nil), line[i+1:]...)})
			} else {
				out = append(out, kv.Pair{Key: append([]byte(nil), line...)})
			}
		}
	}
	return out
}

// RunSequential executes the spec's logic directly, with no cluster or
// simulation — the correctness oracle for engine tests. It returns the
// reduced output pairs of every partition concatenated in partition order
// (each partition internally key-sorted).
func RunSequential(spec Spec) ([]kv.Pair, error) {
	spec.Normalize()
	parts := make([][]kv.Pair, spec.Reducers)
	for _, blk := range spec.Input.Blocks {
		recs, _, err := Records(spec.InputFormat, blk.Data)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			spec.Map(rec.Key, rec.Value, func(k, v []byte) {
				p := spec.Part.Partition(k, spec.Reducers)
				parts[p] = append(parts[p], kv.Pair{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
			})
		}
	}
	var out []kv.Pair
	for _, part := range parts {
		kv.SortPairs(part)
		out = append(out, kv.GroupReduce(part, spec.Reduce)...)
	}
	return out, nil
}
