// Package datampi is the public API of the DataMPI reproduction: a
// key-value pair based communication library extending MPI for
// Hadoop/Spark-like Big Data computing, together with the simulated
// testbed, the baseline engines (Hadoop-like MapReduce and Spark-like
// RDDs), and the BigDataBench workloads used by the paper
// "Performance Benefits of DataMPI: A Case Study with BigDataBench".
//
// The central abstractions:
//
//   - Testbed: a simulated 8-node cluster (Table 2 hardware) with an
//     HDFS-like distributed filesystem.
//   - Job: an engine-agnostic MapReduce-shaped job description (the O
//     function plays map, the A function plays reduce).
//   - Engine: anything that can run a Job — DataMPI itself via New, or
//     the baselines via NewHadoop / NewSpark.
//
// A minimal program:
//
//	tb := datampi.NewTestbed(datampi.TestbedConfig{})
//	in := tb.GenerateText("/in", 64*datampi.MB, 1)
//	eng := datampi.New(tb.FS, datampi.DefaultConfig())
//	res := eng.Run(datampi.WordCount(tb.FS, in, "/out", 8))
//	fmt.Println(res.Elapsed, "simulated seconds")
//
// See examples/ for complete programs and internal/harness for the
// paper's full experiment suite.
package datampi

import (
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Byte-size constants.
const (
	KB = cluster.KB
	MB = cluster.MB
	GB = cluster.GB
)

// Re-exported core types. The aliases give downstream users the full API
// without importing internal packages.
type (
	// Job describes a key-value batch job (input, map/O function,
	// combiner, reduce/A function, partitioner).
	Job = job.Spec
	// Result reports a finished job.
	Result = job.Result
	// Emit passes an intermediate record out of a map/O function.
	Emit = job.Emit
	// Pair is one key-value record.
	Pair = kv.Pair
	// Engine runs jobs; DataMPI, Hadoop and Spark engines implement it.
	Engine = job.Engine
	// DataMPIEngine is the paper's system (internal/core).
	DataMPIEngine = core.Engine
	// Config is the DataMPI cost/configuration profile.
	Config = core.Config
	// FS is the HDFS-like distributed filesystem.
	FS = dfs.FS
	// File is a DFS file handle.
	File = dfs.File
	// Profiler samples per-second cluster resource utilization.
	Profiler = metrics.Profiler
	// Queue admits several jobs onto one testbed so they run concurrently,
	// contending for task slots under a scheduling policy.
	Queue = sched.Queue
	// Submission tracks one job admitted to a Queue.
	Submission = sched.Submission
	// Policy selects how concurrent jobs contend for slots (FIFO or Fair).
	Policy = sched.Policy
	// ConcurrentEngine is an engine that can co-schedule jobs through a
	// Queue; the DataMPI, Hadoop and Spark engines all implement it.
	ConcurrentEngine = sched.Engine
	// SpeculationConfig tunes straggler detection and speculative backup
	// attempts; enable it with Queue.SetSpeculation.
	SpeculationConfig = sched.SpeculationConfig
	// PreemptionConfig tunes Fair-policy slot preemption for starved
	// jobs; enable it with Queue.SetPreemption.
	PreemptionConfig = sched.PreemptionConfig
	// TrackerStats reports task-lifecycle counters (speculative backups,
	// kills, preemptions) via Queue.TrackerStats.
	TrackerStats = sched.TrackerStats
	// ReplicationMonitorConfig tunes the DFS replication monitor a
	// scenario runs with WithReplicationMonitor.
	ReplicationMonitorConfig = dfs.MonitorConfig
	// ReplicationMonitorStats counts the monitor's recovery work (see
	// dfs.ReplicationMonitor.Stats).
	ReplicationMonitorStats = dfs.MonitorStats
	// FsckReport summarizes DFS replica health (FS.Fsck).
	FsckReport = dfs.FsckReport
	// TransportProfile is one engine's staged communication cost
	// profile (serialize/copy/wire/deserialize stages, zero-copy
	// threshold, pipelining); see WithTransport.
	TransportProfile = transport.Profile
	// TransportStats carries the staged-transport counters a scenario
	// accumulated (Report.Transport).
	TransportStats = transport.Stats
	// TransportPipeline overrides a profile's pipelined-shuffle flag at
	// scenario level (PipelineProfile, PipelineOn, PipelineOff).
	TransportPipeline = transport.PipelineMode
	// TraceConfig tunes what a scenario's span recorder captures (see
	// WithTracing); the zero value records everything.
	TraceConfig = trace.Config
	// Tracer is the span recorder a traced scenario returns on
	// Report.Trace: spans, instants and counters in simulated time, with
	// Chrome trace-event export (WriteChrome/WriteJSONL) and
	// critical-path analysis (CriticalPath, PhaseBreakdown).
	Tracer = trace.Tracer
	// Span is one timed interval on the trace: a task attempt, an engine
	// phase, a shuffle fetch, a transport stage.
	Span = trace.Span
	// PathSeg is one interval of a critical path, attributed to its
	// span's category.
	PathSeg = trace.Seg
	// PathCategory is one category's summed critical-path time.
	PathCategory = trace.CatTotal
)

// Per-engine staged transport profiles (see internal/transport).
var (
	// HadoopTransport is the MapReduce copy+buffer shuffle path.
	HadoopTransport = transport.HadoopProfile
	// SparkTransport is the serialized-shuffle path.
	SparkTransport = transport.SparkProfile
	// DataMPITransport is the zero-copy-eligible buffered native path.
	DataMPITransport = transport.DataMPIProfile
)

// Pipelined-shuffle overrides for TransportConfig.Pipeline.
const (
	// PipelineProfile follows each engine profile's Pipelined flag.
	PipelineProfile = transport.PipelineProfile
	// PipelineOn forces pipelined shuffle on staged transports.
	PipelineOn = transport.PipelineOn
	// PipelineOff forces fetch-at-completion.
	PipelineOff = transport.PipelineOff
)

// Queue scheduling policies.
const (
	// FIFO gives earlier-submitted jobs strict priority for freed slots;
	// later jobs backfill idle capacity.
	FIFO = sched.FIFO
	// Fair splits freed slots evenly between jobs with waiting tasks.
	Fair = sched.Fair
)

// Format constants for Job.InputFormat.
const (
	Text    = job.Text
	Seq     = job.Seq
	SeqGzip = job.SeqGzip
)

// TestbedConfig sizes the simulated cluster and filesystem.
type TestbedConfig struct {
	// Nodes is the cluster size (default 8, the paper's testbed).
	Nodes int
	// Racks splits the nodes across failure domains for correlated-failure
	// scenarios (RackDown, rack-aware replica placement and retry
	// placement). Zero or 1 keeps the default flat single-rack topology;
	// otherwise Racks must divide Nodes evenly.
	Racks int
	// BlockSize is the DFS block size in nominal bytes (default 256 MB,
	// the paper's tuned value).
	BlockSize float64
	// Replication is the DFS replication factor (default 3).
	Replication int
	// Scale is the data-scaling divisor: nominal bytes represented per
	// stored byte (default 1 = no scaling). See DESIGN.md.
	Scale float64
	// Seed drives replica placement and data generation.
	Seed int64
}

// Testbed bundles a simulated cluster and its filesystem.
type Testbed struct {
	Cluster *cluster.Cluster
	FS      *dfs.FS
}

// NewTestbed builds the paper's 8-node testbed (Table 2) with an empty
// distributed filesystem.
func NewTestbed(tc TestbedConfig) *Testbed {
	hw := cluster.DefaultHardware()
	if tc.Nodes > 0 {
		hw.Nodes = tc.Nodes
	}
	if tc.Racks > 1 {
		hw.Topology = cluster.Topology{Racks: tc.Racks}
	}
	c := cluster.New(hw)
	cfg := dfs.DefaultConfig()
	if tc.BlockSize > 0 {
		cfg.BlockSize = tc.BlockSize
	}
	if tc.Replication > 0 {
		cfg.Replication = tc.Replication
	}
	if tc.Scale >= 1 {
		cfg.Scale = tc.Scale
	}
	cfg.Seed = tc.Seed + 1
	return &Testbed{Cluster: c, FS: dfs.New(c, cfg)}
}

// NewQueue creates a job queue over the testbed: jobs submitted to it run
// concurrently on the shared simulated cluster, with slot contention
// arbitrated by policy. Call Run to drive all admitted jobs to completion.
// Scenario knobs — per-job weights (SubmitWeighted), speculative
// execution (SetSpeculation), preemption (SetPreemption) and
// delay-scheduling slack (SetLocalitySlack) — live on the returned Queue.
//
// New code should prefer NewScenario: it expresses the same runs
// declaratively (tenants, arrival traces, timed perturbations) and
// returns a structured latency report. The Queue setters stay supported
// as the imperative layer the Scenario API drives.
func (t *Testbed) NewQueue(policy Policy) *Queue {
	q := sched.NewQueue(t.Cluster.Eng, t.Cluster.N(), policy)
	if t.Cluster.Racks() > 1 {
		// Rack-aware retry placement: after a failure the tracker prefers
		// backup nodes outside the racks the task already failed in.
		rackOf := make([]int, t.Cluster.N())
		for i := range rackOf {
			rackOf[i] = t.Cluster.RackOf(i)
		}
		q.SetTopology(rackOf)
	}
	// Nodes the testbed already recorded as failed stay excluded from
	// task placement in the new queue.
	for i := 0; i < t.Cluster.N(); i++ {
		if !t.Cluster.Alive(i) {
			q.NodeDown(i)
		}
	}
	return q
}

// SlowNode degrades node i's CPU and disk service rates by factor
// (factor 4 = four times slower) — the straggler perturbation for
// heterogeneity scenarios. It may be applied before or during a run.
func (t *Testbed) SlowNode(i int, factor float64) {
	t.Cluster.SlowNode(i, factor)
}

// NewProfiler attaches a resource profiler sampling every interval
// simulated seconds; assign it to an engine's Prof field before running.
func (t *Testbed) NewProfiler(interval float64) *metrics.Profiler {
	p := metrics.NewProfiler(t.Cluster, interval)
	t.FS.SetProfiler(p)
	return p
}

// GenerateText stages nominalBytes of wikipedia-model text (the
// BigDataBench lda_wiki1w generator) in the DFS.
func (t *Testbed) GenerateText(name string, nominalBytes float64, seed int64) *dfs.File {
	return bdb.GenerateTextFile(t.FS, name, bdb.LDAWiki1W(), seed, nominalBytes)
}

// New creates a DataMPI engine on the testbed's filesystem.
func New(fs *dfs.FS, cfg Config) *core.Engine { return core.New(fs, cfg) }

// DefaultConfig returns DataMPI's calibrated profile.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewHadoop creates the Hadoop-like MapReduce baseline engine.
func NewHadoop(fs *dfs.FS) *mr.Engine { return mr.New(fs, mr.DefaultConfig()) }

// NewSpark creates the Spark-like RDD baseline engine.
func NewSpark(fs *dfs.FS) *rdd.Engine { return rdd.New(fs, rdd.DefaultConfig()) }

// WordCount builds the WordCount micro-benchmark job.
func WordCount(fs *dfs.FS, in *dfs.File, out string, reducers int) Job {
	return bdb.WordCountSpec(fs, in, out, reducers)
}

// Grep builds the Grep micro-benchmark job for a regexp pattern.
func Grep(fs *dfs.FS, in *dfs.File, out, pattern string, reducers int) Job {
	return bdb.GrepSpec(fs, in, out, pattern, reducers)
}

// TextSort builds the total-order Text Sort micro-benchmark job.
func TextSort(fs *dfs.FS, in *dfs.File, out string, reducers int) Job {
	return bdb.TextSortSpec(fs, in, out, reducers)
}

// ReadTextOutput gathers and parses a finished job's output part files.
func ReadTextOutput(fs *dfs.FS, prefix string) []Pair {
	return job.ReadTextOutput(fs, prefix)
}

// RenderCriticalPath formats a critical path (Tracer.CriticalPath) as an
// aligned table: the top-k segments by duration plus per-category totals.
func RenderCriticalPath(segs []PathSeg, k int) string { return trace.RenderPath(segs, k) }

// PathByCategory sums critical-path segments per span category,
// descending by attributed time.
func PathByCategory(segs []PathSeg) []PathCategory { return trace.ByCategory(segs) }

// PathSeconds returns the critical-path time attributed to one category
// (e.g. "net" for communication, "task" for compute attempts).
func PathSeconds(segs []PathSeg, cat string) float64 { return trace.CategorySeconds(segs, cat) }
