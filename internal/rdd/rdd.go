// Package rdd implements the Spark 0.8-like baseline: resilient
// distributed datasets with lazy narrow transformations fused into
// stages, a DAG scheduler that breaks stages at shuffle boundaries,
// hash-based shuffle with disk-backed map outputs, in-memory partition
// caching with Java-object expansion, and — critically for the paper's
// Figure 3 — OutOfMemory failures when a sort stage's working set
// exceeds the worker heap.
//
// Spark's structural advantages over Hadoop are modeled directly: one
// executor launch per application instead of per-task JVMs,
// millisecond-scale task dispatch, and in-memory intermediate data.
// Its weaknesses are modeled too: Java object expansion of cached and
// shuffled data (the reason the paper's Spark runs OOM on Normal Sort
// and on Text Sort beyond 8 GB) and GC pressure.
package rdd

import (
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the Spark cost/configuration profile.
type Config struct {
	WorkersPerNode int // concurrent tasks per node

	AppLaunch    float64 // driver + executor launch (s)
	TaskDispatch float64 // per-task scheduling (s) — milliseconds in Spark
	JobFinalize  float64

	CPUPerByteMap    float64
	CPUPerByteReduce float64
	CPUPerByteSort   float64
	CacheCPUPerByte  float64 // building cached RDD objects per nominal byte
	CPUPerRecord     float64
	GCFactor         float64
	MemPressureGC    float64 // GC storm overhead above 60% node memory

	// ExpansionFactor is the in-memory size of data as JVM objects
	// relative to its serialized bytes; SortOverheadFactor is the extra
	// working-set multiplier while sort buffers are live.
	ExpansionFactor    float64
	SortOverheadFactor float64
	WorkerHeap         float64 // heap per worker ("as large as possible")
	ExecutorBaseMem    float64
	DaemonMem          float64
	GCLagSecs          float64 // transient garbage lingers this long

	ShuffleBufferBytes float64 // reduce-side fetch buffer before spilling

	// Transport overrides the engine's staged communication profile
	// (transport.SparkProfile when unset, i.e. Name == "").
	Transport transport.Profile
}

// DefaultConfig returns the calibrated Spark profile. WorkerHeap follows
// the paper's setup: 16 GB nodes, memory given to workers "as large as
// possible" — (16 - 2) GB over 4 workers.
func DefaultConfig() Config {
	return Config{
		WorkersPerNode:     4,
		AppLaunch:          3.5,
		TaskDispatch:       0.15,
		JobFinalize:        1.0,
		CPUPerByteMap:      0.28e-7,
		CPUPerByteReduce:   0.35e-7,
		CPUPerByteSort:     0.20e-7,
		CacheCPUPerByte:    1.0e-7,
		CPUPerRecord:       0.8e-6,
		GCFactor:           0.35,
		MemPressureGC:      2.0,
		ExpansionFactor:    4.5,
		SortOverheadFactor: 1.6,
		WorkerHeap:         3.5 * cluster.GB,
		ExecutorBaseMem:    1.0 * cluster.GB,
		DaemonMem:          0.8 * cluster.GB,
		GCLagSecs:          6,
		ShuffleBufferBytes: 256 * cluster.MB,
	}
}

// Engine is the Spark-like engine. Create one per application; cached
// RDDs persist across jobs run on the same engine (as they do across
// actions in one SparkContext) — until an executor holding cached
// partitions dies, which invalidates the affected RDDs for recompute.
type Engine struct {
	C    *cluster.Cluster
	FS   *dfs.FS
	Cfg  Config
	Prof *metrics.Profiler
	// Tracer records job/stage/fetch spans for solo action paths; queue
	// submissions inherit the tracker's tracer instead.
	Tracer *trace.Tracer

	appStarted bool
	app        *sched.Residency // executor residency across actions
	profiling  sched.Profiling  // refcounted sampling across actions

	// cachedRDDs registers every RDD materialized into executor memory,
	// so a node failure can drop the partitions that died with it.
	cachedRDDs []*RDD

	tp *transport.Transport
}

// Transport exposes the engine's communication model: every shuffle
// byte goes through it, on the profile's fluid form until the scenario
// WithTransport knob switches staging on.
func (e *Engine) Transport() *transport.Transport { return e.tp }

// New creates an engine (a SparkContext, in effect) over a filesystem.
// The engine subscribes to datanode failures: executors are co-located
// with datanodes, so a node going down also loses the executor cache
// partitions it held (see dropCachesOn).
func New(fs *dfs.FS, cfg Config) *Engine {
	prof := cfg.Transport
	if prof.Name == "" {
		prof = transport.SparkProfile()
	}
	e := &Engine{C: fs.Cluster(), FS: fs, Cfg: cfg, tp: transport.New(fs.Cluster(), prof)}
	fs.OnNodeEvent(func(node int, down bool) {
		if down {
			e.dropCachesOn(node)
		}
	})
	return e
}

// dropCachesOn invalidates every cached RDD with a partition on the dead
// node — Spark loses an executor's in-memory blocks with the executor.
// Cache residency is all-or-nothing here, so the whole RDD drops: pins on
// surviving nodes are freed too, and the next action recomputes and
// re-materializes it through the normal lineage plan, charging the lost
// partitions to the tracker's cache-recompute counter when the refill
// lands. Stages already running keep the plan-time snapshot they hold;
// data an executor already fetched is not clawed back mid-task.
func (e *Engine) dropCachesOn(node int) {
	for _, r := range e.cachedRDDs {
		if !r.inCache {
			continue
		}
		lost := 0
		for _, pd := range r.cacheData {
			if pd.node == node {
				lost++
			}
		}
		if lost == 0 {
			continue
		}
		for _, pd := range r.cacheData {
			e.C.Node(pd.node).Mem.Free(pd.nominal * e.Cfg.ExpansionFactor)
		}
		r.cacheData = nil
		r.inCache = false
		r.lostParts += lost
	}
}

// registerCached remembers a materialized RDD for failure invalidation.
func (e *Engine) registerCached(r *RDD) {
	for _, c := range e.cachedRDDs {
		if c == r {
			return
		}
	}
	e.cachedRDDs = append(e.cachedRDDs, r)
}

// Name implements job.Engine.
func (e *Engine) Name() string { return "Spark" }

// Cluster implements sched.Engine.
func (e *Engine) Cluster() *cluster.Cluster { return e.C }

func (e *Engine) scale() float64 { return e.FS.Config().Scale }

// RDD is a lazily evaluated dataset. Narrow transformations extend the
// lineage; wide (shuffle) transformations mark stage boundaries.
type RDD struct {
	eng *Engine

	// Exactly one of the following describes how this RDD is produced.
	source *dfs.File // textFile/sequenceFile source
	narrow *narrowOp
	wide   *wideOp

	format    job.Format
	cached    bool
	cacheData []partData // materialized when cached and computed
	inCache   bool
	evicted   bool // last materialization did not fit in executor memory
	lostParts int  // cached partitions dropped with failed nodes, awaiting recompute accounting
}

type narrowOp struct {
	parent    *RDD
	f         func([]kv.Pair, func(kv.Pair))
	cpuFactor float64
}

type wideOp struct {
	parent  *RDD
	nParts  int
	part    kv.Partitioner
	combine kv.Combiner
	reduce  kv.Reducer
	sorted  bool // sortByKey semantics: materialize + sort (OOM risk)
}

type partData struct {
	pairs   []kv.Pair
	nominal float64
	records float64 // nominal record count (staged-transport per-record costs)
	node    int
	taskIdx int // producing task's index within its stage (shuffle recovery)
}

// TextFile creates a source RDD over a DFS file of newline-separated
// records.
func (e *Engine) TextFile(f *dfs.File) *RDD {
	return &RDD{eng: e, source: f, format: job.Text}
}

// SequenceFile creates a source RDD over kv-encoded (optionally gzipped)
// records.
func (e *Engine) SequenceFile(f *dfs.File, format job.Format) *RDD {
	return &RDD{eng: e, source: f, format: format}
}

// FlatMapKV applies a record-level map function (like flatMap over pairs).
// cpuFactor scales the per-byte CPU cost of this transformation.
func (r *RDD) FlatMapKV(f job.MapFunc, cpuFactor float64) *RDD {
	if cpuFactor <= 0 {
		cpuFactor = 1
	}
	return &RDD{eng: r.eng, narrow: &narrowOp{
		parent: r,
		f: func(in []kv.Pair, out func(kv.Pair)) {
			// One emit closure and one arena per partition invocation:
			// record copies land in shared blocks instead of two fresh
			// slices per record. The arena is never released — emitted
			// records flow into shuffle/cache/collect results that may
			// outlive this stage.
			ar := kv.NewArena()
			emit := func(k, v []byte) { out(ar.CopyPair(k, v)) }
			for _, p := range in {
				f(p.Key, p.Value, emit)
			}
		},
		cpuFactor: cpuFactor,
	}}
}

// Filter keeps pairs for which pred returns true.
func (r *RDD) Filter(pred func(kv.Pair) bool) *RDD {
	return &RDD{eng: r.eng, narrow: &narrowOp{
		parent: r,
		f: func(in []kv.Pair, out func(kv.Pair)) {
			for _, p := range in {
				if pred(p) {
					out(p)
				}
			}
		},
		cpuFactor: 1,
	}}
}

// ReduceByKey shuffles by hash partitioning with map-side combining and
// reduces values per key — no global sort, so no sort OOM risk.
func (r *RDD) ReduceByKey(combine kv.Combiner, reduce kv.Reducer, nParts int) *RDD {
	return &RDD{eng: r.eng, wide: &wideOp{
		parent: r, nParts: nParts, part: kv.HashPartitioner{},
		combine: combine, reduce: reduce,
	}}
}

// GroupByKey shuffles with no combining and applies reduce per key group.
func (r *RDD) GroupByKey(reduce kv.Reducer, nParts int) *RDD {
	return &RDD{eng: r.eng, wide: &wideOp{
		parent: r, nParts: nParts, part: kv.HashPartitioner{}, reduce: reduce,
	}}
}

// SortByKey performs a total-order sort via range partitioning. The
// receiving partitions are fully materialized in worker memory for the
// sort, which is where Spark 0.8 throws OutOfMemoryError on large inputs.
func (r *RDD) SortByKey(part kv.Partitioner, reduce kv.Reducer, nParts int) *RDD {
	return &RDD{eng: r.eng, wide: &wideOp{
		parent: r, nParts: nParts, part: part, reduce: reduce, sorted: true,
	}}
}

// Cache marks the RDD for in-memory persistence after first computation.
func (r *RDD) Cache() *RDD {
	r.cached = true
	return r
}

// AttachProfiler wires a resource profiler into the engine.
func (e *Engine) AttachProfiler(p *metrics.Profiler) { e.Prof = p }
