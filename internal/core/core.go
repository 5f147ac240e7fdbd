// Package core implements DataMPI, the paper's primary contribution: a
// key-value-pair communication library extending MPI for Hadoop/Spark-like
// Big Data computing (Lu et al., IPDPS '14; this paper, Section 2.3).
//
// A DataMPI job forms a bipartite graph of tasks split into an O (origin)
// communicator and an A (acceptor) communicator. The library supports the
// "4D" communication characteristics the DataMPI papers identify:
//
//   - dichotomic: tasks are divided into the O and A sides;
//   - dynamic: concurrent tasks are scheduled onto the communicators as
//     slots free up;
//   - data-centric: emitted key-value pairs are partitioned and buffered
//     at the A-side workers so A tasks read their intermediate data
//     locally;
//   - diversified: Common mode covers MapReduce-style jobs and Iteration
//     mode covers iterative jobs (K-means), with in-memory state reuse.
//
// The headline mechanism the paper credits for DataMPI's wins is
// implemented directly: O tasks pipeline the partitioned intermediate
// data to A-side memory buffers *while* they compute, so communication
// overlaps computation and the intermediate data never touches disk
// unless the A-side buffer overflows. Per-task processes are native (no
// JVM), so startup and per-byte CPU costs are low; both constants come
// from the paper's own measurements (see EXPERIMENTS.md).
package core

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/mpi"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the DataMPI cost/configuration profile.
type Config struct {
	TasksPerNode int // concurrent O tasks per node; also A tasks per node

	MPIRunLaunch float64 // mpirun + process spawn across the cluster (s)
	TaskStart    float64 // per-task initialization (s)
	JobFinalize  float64 // result commit + MPI_Finalize (s)

	SendBufferBytes float64 // per-destination O-side send buffer (pipelining unit)
	ABufferBytes    float64 // A-side in-memory intermediate buffer per task

	CPUPerByteO    float64 // core-sec per nominal input byte in O tasks (native code)
	CPUPerByteA    float64 // core-sec per nominal buffered byte in A tasks
	CPUPerByteSort float64
	CPUPerRecord   float64
	OverheadFactor float64 // background library overhead per task core-sec

	ProcBaseMem float64 // resident memory per MPI process
	DaemonMem   float64 // per-node runtime residency

	// DisablePipelining is an ablation switch: when set, O tasks send
	// their partitioned output only after the read and computation
	// complete — Hadoop's post-map shuffle shape — instead of overlapping
	// communication with computation. It quantifies the paper's headline
	// mechanism (Section 2.3: "Data movement is pipelining with the
	// computation overlapped in O tasks").
	DisablePipelining bool

	// Checkpoint enables key-value checkpointing of A-side intermediate
	// data to the DFS (DataMPI's fault-tolerance mechanism).
	Checkpoint bool
	// FailATask, if >= 0, makes that A task crash once after receiving
	// its data — failure injection for checkpoint/restart tests.
	FailATask int
	// RestartDelay is the time to detect a failed task and respawn it.
	RestartDelay float64

	// Transport overrides the engine's staged communication profile
	// (transport.DataMPIProfile when unset, i.e. Name == ""); its
	// EmitCPUPerByte is the serialization/partitioning cost per emitted
	// nominal byte.
	Transport transport.Profile
}

// DefaultConfig returns the calibrated DataMPI profile.
func DefaultConfig() Config {
	return Config{
		TasksPerNode:    4,
		MPIRunLaunch:    5.0,
		TaskStart:       0.5,
		JobFinalize:     3.0,
		SendBufferBytes: 4 * cluster.MB,
		ABufferBytes:    512 * cluster.MB,
		CPUPerByteO:     0.32e-7, // native record processing, ~2x leaner than JVM
		CPUPerByteA:     0.50e-7,
		CPUPerByteSort:  0.25e-7,
		CPUPerRecord:    0.5e-6,
		OverheadFactor:  0.08,
		ProcBaseMem:     0.6 * cluster.GB,
		DaemonMem:       0.2 * cluster.GB,
		FailATask:       -1,
		RestartDelay:    2.0,
	}
}

// Engine runs DataMPI Common-mode jobs. It implements job.Engine
// (exclusive single-job runs) and sched.Engine (job admission onto a
// shared testbed).
type Engine struct {
	C    *cluster.Cluster
	FS   *dfs.FS
	Cfg  Config
	Prof *metrics.Profiler
	// Tracer records job/phase/recv spans for solo Run paths; queue
	// submissions inherit the tracker's tracer instead.
	Tracer *trace.Tracer

	daemons   *sched.Residency // per-node runtime residency across jobs
	profiling sched.Profiling  // refcounted sampling across jobs
	tp        *transport.Transport
}

var _ sched.Engine = (*Engine)(nil)

// New creates a DataMPI engine over a filesystem.
func New(fs *dfs.FS, cfg Config) *Engine {
	prof := cfg.Transport
	if prof.Name == "" {
		prof = transport.DataMPIProfile()
	}
	return &Engine{C: fs.Cluster(), FS: fs, Cfg: cfg, tp: transport.New(fs.Cluster(), prof)}
}

// Transport exposes the engine's communication model: every shuffle
// byte goes through it, on the profile's fluid form until the scenario
// WithTransport knob switches staging on.
func (e *Engine) Transport() *transport.Transport { return e.tp }

// Name implements job.Engine.
func (e *Engine) Name() string { return "DataMPI" }

// Cluster implements sched.Engine.
func (e *Engine) Cluster() *cluster.Cluster { return e.C }

func (e *Engine) scale() float64 { return e.FS.Config().Scale }

// Run executes a Common-mode job exclusively: the equivalent of one
// MapReduce round, with spec.Map as the O function and spec.Reduce as the
// A function. It drives the simulation engine to completion, so the
// cluster must not have other foreground work; co-schedule jobs through a
// sched.Queue instead.
func (e *Engine) Run(spec job.Spec) job.Result {
	eng := e.C.Eng
	res := new(job.Result)
	completed := false
	e.submit(spec, sched.Solo(eng, e.C.N()), res, func(job.Result) { completed = true })
	if err := eng.Run(); err != nil {
		if res.Err == nil {
			res.Err = err
		}
		if !completed {
			// The driver never reached its cleanup (simulation deadlock):
			// release what submit charged so the engine stays reusable.
			e.profiling.Stop(e.Prof)
			e.releaseDaemons()
		}
	}
	// Exclusive-run accounting: the job ends when the simulation drains,
	// and the A phase extends to that point.
	res.End = eng.Now()
	res.Elapsed = res.End - res.Start
	if o, ok := res.Phases["O"]; ok {
		res.Phases["A"] = res.End - (res.Start + o)
	}
	return *res
}

// Submit implements sched.Engine: it admits the job onto the shared
// simulation without driving the event loop.
func (e *Engine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	e.submit(spec, ctl, new(job.Result), done)
}

// submit spawns the job's driver and task processes. done (optional) runs
// in simulation context when the driver completes.
func (e *Engine) submit(spec job.Spec, ctl *sched.JobControl, res *job.Result, done func(job.Result)) {
	spec.Normalize()
	*res = job.Result{Engine: e.Name(), Job: spec.Name, Phases: map[string]float64{}}
	eng := e.C.Eng
	res.Start = eng.Now()

	blocks := spec.Input.Blocks
	if len(blocks) == 0 {
		res.Err = fmt.Errorf("datampi: job %s has empty input", spec.Name)
		if done != nil {
			done(*res)
		}
		return
	}

	e.acquireDaemons()
	e.profiling.Start(e.Prof, eng)

	tr := ctl.Tracer(e.Tracer)
	e.tp.SetTracer(tr)
	var jsp *trace.Span
	if tr != nil {
		jsp = tr.Begin("job:"+spec.Name, "job", 0, trace.TidDriver, res.Start).
			Annotate("engine", e.Name())
	}

	nO := e.Cfg.TasksPerNode * e.C.N()
	if nO > len(blocks) {
		nO = len(blocks)
	}
	nA := spec.Reducers
	world := e.buildWorld(nO, nA)
	splitsOf := e.assignSplits(ctl.Placer(), blocks, nO, world)
	oSpans := make([]uint64, nO) // O rank -> latest attempt span ID

	// Task slots: with a single job both pools are at least as wide as the
	// communicators mpirun lays out (the A pool widens when Reducers
	// exceeds TasksPerNode*N, matching the all-ranks-at-once launch), so
	// acquisition never blocks; under a shared queue they make concurrent
	// DataMPI jobs contend per node. The A pool is elastic: a later job
	// with a denser A layout grows the shared pool rather than strand
	// ranks behind a latched size.
	oSlots := ctl.Pool("dm-o", e.Cfg.TasksPerNode)
	aPerNode := e.Cfg.TasksPerNode
	if need := (nA + e.C.N() - 1) / e.C.N(); need > aPerNode {
		aPerNode = need
	}
	aSlots := ctl.PoolGrow("dm-a", aPerNode)

	var jobErr error
	fail := func(err error) {
		if jobErr == nil {
			jobErr = err
		}
	}
	var oPhaseEnd float64
	oDone := 0

	var wg sim.WaitGroup

	// A-side recovery: a restarted A rank lost its in-memory intermediate
	// data, so the engine replays the whole O side into it — every replay
	// send reaches every A rank, and the live ones discard the duplicate
	// streams by split tag. Rounds are shared: ranks restarted together
	// ride one replay.
	var rec *aRecovery
	launchReplay := func(o, gen int) {
		wg.Add(1)
		ctl.Tracker().NoteRecompute()
		ctl.Launch(sched.TaskSpec{
			Name:        fmt.Sprintf("O-%d~r%d", o, gen),
			Node:        world.NodeOf(o),
			Pool:        oSlots,
			Group:       "O",
			Restartable: true,
			CommitFS:    e.FS,
			Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
				oSpans[o] = att.TraceSpan().SpanID()
				return nil, e.runOTask(p, att, &spec, world, o, nO, nA, splitsOf[o])
			},
			Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
				res.AddCounter("o_replays", 1)
				return nil
			},
			Fail: fail,
			// taskDone may chain a pending round (wg.Add) and must run
			// before wg.Done so the driver cannot slip through a zero.
			Final: func() { rec.taskDone(eng.Now()); wg.Done() },
		})
	}
	rec = &aRecovery{nO: nO, launch: launchReplay, pendingAt: -1}

	eng.Go("datampi-driver:"+spec.Name, func(driver *sim.Proc) {
		// mpirun spawns every task process across the cluster at once —
		// no per-wave JVM costs, the paper's "low overhead" property.
		driver.Sleep(e.Cfg.MPIRunLaunch)

		wg.Add(nO + nA)
		oFinish := func() {
			oDone++
			if oDone == nO {
				oPhaseEnd = eng.Now()
			}
		}
		for o := 0; o < nO; o++ {
			o := o
			// O tasks are restartable: the body re-reads its immutable
			// splits and re-streams partitions, and duplicate sends are
			// harmless because the A side keeps one message per split tag
			// and discards re-deliveries (the duplicate bytes still cross
			// the simulated network, as real speculative shuffles do).
			// Map-only O tasks write the DFS through the attempt-scoped
			// committer, so they can race backups too.
			ctl.Launch(sched.TaskSpec{
				Name:        fmt.Sprintf("O-%d", o),
				Node:        world.NodeOf(o),
				Pool:        oSlots,
				Group:       "O",
				Restartable: true,
				CommitFS:    e.FS,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					oSpans[o] = att.TraceSpan().SpanID()
					return nil, e.runOTask(p, att, &spec, world, o, nO, nA, splitsOf[o])
				},
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					res.AddCounter("o_tasks", 1)
					oSpans[o] = att.TraceSpan().SpanID()
					if nA == 0 {
						jsp.DepOn(oSpans[o])
					}
					oFinish()
					return nil
				},
				Fail:  func(err error) { fail(err); oFinish() },
				Final: wg.Done,
			})
		}
		totalSplits := len(blocks)
		for a := 0; a < nA; a++ {
			a := a
			// A tasks are never speculated: dichotomic A ranks accumulate
			// the job's intermediate data in memory as it streams in, so a
			// backup could not re-receive consumed messages. They are
			// Retryable, though: losing the node restarts the rank on a
			// healthy one (PreRetry widens the gang-scheduled pool so the
			// re-homed rank can get a slot the failure took out of
			// service), and the engine replays the O side into it.
			ctl.Launch(sched.TaskSpec{
				Name:      fmt.Sprintf("A-%d", a),
				Node:      world.NodeOf(nO + a),
				Pool:      aSlots,
				Group:     "A",
				Retryable: true,
				PreRetry:  func() { aSlots.Grow(aSlots.PerNode() + 1) },
				CommitFS:  e.FS,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					return nil, e.runATask(p, att, &spec, world, nO, a, totalSplits, res, rec, oSpans)
				},
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					res.AddCounter("a_tasks", 1)
					jsp.DepOn(att.TraceSpan().SpanID())
					return nil
				},
				Fail:  fail,
				Final: wg.Done,
			})
		}
		wg.Wait(driver)
		driver.Sleep(e.Cfg.JobFinalize)
		res.End = eng.Now()
		res.Elapsed = res.End - res.Start
		if oPhaseEnd > 0 {
			res.Phases["O"] = oPhaseEnd - res.Start
			res.Phases["A"] = res.End - oPhaseEnd
		}
		if jsp != nil {
			jsp.EndAt(res.End)
			if oPhaseEnd > 0 {
				tr.BeginChild(jsp, "O", "phase", 0, trace.TidDriver, res.Start).EndAt(oPhaseEnd)
				tr.BeginChild(jsp, "A", "phase", 0, trace.TidDriver, oPhaseEnd).EndAt(res.End)
			}
		}
		res.Err = jobErr
		e.profiling.Stop(e.Prof)
		e.releaseDaemons()
		if done != nil {
			done(*res)
		}
	})
}

// aRecovery coordinates O-side replay for restarted A ranks. A restarted
// rank flushes its mailbox (its buffered state died with the node) and
// calls ensureReplay with the flush time: a replay round re-executes every
// O task, whose sends re-deliver every split tag to every A rank — live
// ranks discard the duplicates, the restarted rank is fed from scratch. A
// round already in flight that started at or after the flush covers it; a
// flush arriving mid-round queues one follow-up round.
type aRecovery struct {
	nO          int
	launch      func(o, gen int)
	active      bool
	started     float64 // sim time the in-flight round began
	outstanding int     // replay tasks still to finish in the round
	pendingAt   float64 // latest uncovered flush time (-1 when none)
	gen         int     // round number, for replay task names
}

// ensureReplay requests that every split tag be re-sent after flushT.
func (r *aRecovery) ensureReplay(flushT float64) {
	if r.active {
		if r.started >= flushT {
			return // the in-flight round began after our mailbox flush
		}
		if flushT > r.pendingAt {
			r.pendingAt = flushT
		}
		return
	}
	r.start(flushT)
}

func (r *aRecovery) start(now float64) {
	r.active = true
	r.started = now
	r.outstanding = r.nO
	r.pendingAt = -1
	r.gen++
	for o := 0; o < r.nO; o++ {
		r.launch(o, r.gen)
	}
}

// taskDone retires one replay task; completing a round starts the queued
// follow-up, if any.
func (r *aRecovery) taskDone(now float64) {
	r.outstanding--
	if r.outstanding == 0 {
		r.active = false
		if r.pendingAt >= 0 {
			r.start(now)
		}
	}
}

// acquireDaemons charges the per-node runtime residency when the first
// concurrent job starts; releaseDaemons frees it with the last.
func (e *Engine) acquireDaemons() {
	if e.daemons == nil {
		e.daemons = sched.NewResidency(e.C)
	}
	e.daemons.Acquire(e.Cfg.DaemonMem)
}

func (e *Engine) releaseDaemons() { e.daemons.Release() }

// buildWorld lays out nO O-ranks followed by nA A-ranks, each side spread
// round-robin across nodes.
func (e *Engine) buildWorld(nO, nA int) *mpi.World {
	nodeOf := make([]int, nO+nA)
	for o := 0; o < nO; o++ {
		nodeOf[o] = o % e.C.N()
	}
	for a := 0; a < nA; a++ {
		nodeOf[nO+a] = a % e.C.N()
	}
	w := mpi.NewWorld(e.C, nodeOf)
	w.SetTransport(e.tp)
	return w
}

// assignSplits maps input blocks to O ranks: blocks go to nodes with
// locality preference and balanced waves, then round-robin over that
// node's local O ranks (see sched.Placer.PlaceOnRanks).
func (e *Engine) assignSplits(pl sched.Placer, blocks []*dfs.Block, nO int, w *mpi.World) [][]*dfs.Block {
	rankNode := make([]int, nO)
	for o := 0; o < nO; o++ {
		rankNode[o] = w.NodeOf(o)
	}
	return pl.PlaceOnRanks(blocks, rankNode)
}

// runOTask processes this rank's splits: for each split, the input read,
// the O-function CPU, and the pipelined partition sends all overlap. The
// body is restartable when an A side exists: a speculative attempt runs
// it on its own node (att.Node may differ from the rank's home node) and
// everything it allocates is released by defers even when cancelled.
func (e *Engine) runOTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, w *mpi.World, rank, nO, nA int, splits []*dfs.Block) error {
	cfg := &e.Cfg
	scale := e.scale()
	node := att.Node()
	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskStart)
	mem.MustAlloc(cfg.ProcBaseMem)
	defer mem.Free(cfg.ProcBaseMem)
	var sendBufHeld float64
	defer func() { mem.Free(sendBufHeld) }()

	mapOnly := nA == 0
	for si, blk := range splits {
		att.Report(float64(si) / float64(len(splits)))
		recs, inflated, err := job.Records(spec.InputFormat, blk.Data)
		if err != nil {
			return fmt.Errorf("datampi: O input: %w", err)
		}
		inflatedNominal := float64(inflated) * scale
		nominalRecords := float64(len(recs)) * scale

		nParts := nA
		if mapOnly {
			nParts = 1
		}
		// The O side partitions into per-destination send buffers; no
		// sort is needed before communication (the A side sorts), but a
		// local combine pass runs if configured.
		coll := kv.NewPartitionCollector(nParts, 0, spec.Combine, spec.Part)
		for _, rec := range recs {
			spec.Map(rec.Key, rec.Value, coll.Emit)
		}
		parts, _, _ := coll.Finish()
		emitScale := spec.EmitScale()
		emittedNominal := 0.0
		for _, part := range parts {
			for _, pr := range part {
				emittedNominal += float64(pr.Size()+6) * emitScale
			}
		}

		// Send buffers hold one pipelining unit per destination. The held
		// amount is tracked so the deferred release covers a cancelled
		// attempt mid-split.
		sendBufMem := float64(nParts) * cfg.SendBufferBytes
		if sendBufMem > 64*cluster.MB*float64(nParts) {
			sendBufMem = 64 * cluster.MB * float64(nParts)
		}
		mem.MustAlloc(sendBufMem)
		sendBufHeld += sendBufMem

		cpuSec := spec.CPUAdjust(e.Name()) * (cfg.CPUPerByteO*spec.MapCPUFactor*inflatedNominal +
			e.tp.Profile().EmitCPUPerByte*emittedNominal +
			cfg.CPUPerRecord*nominalRecords)

		var wg sim.WaitGroup
		if err := e.FS.StartRead(blk, node, &wg); err != nil {
			return err
		}
		wg.Add(1)
		e.C.Node(node).CPU.Start(cpuSec, wg.Done)
		if cfg.OverheadFactor > 0 {
			wg.Add(1)
			e.C.Node(node).CPU.Start(cfg.OverheadFactor*cpuSec, wg.Done)
		}
		sendAll := func(sg *sim.WaitGroup) {
			for a := 0; a < nA; a++ {
				nominal := 0.0
				for _, pr := range parts[a] {
					nominal += float64(pr.Size()+6) * emitScale
				}
				sg.Add(1)
				w.IsendFromRecords(node, rank, nO+a, splitTag(blk), nominal,
					float64(len(parts[a]))*emitScale, parts[a], sg.Done)
			}
		}
		if !mapOnly && !cfg.DisablePipelining {
			// Pipelined communication: every partition streams to its A
			// task concurrently with the computation above. The message
			// carries the real records.
			sendAll(&wg)
		}
		p.BlockReason = "disk"
		wg.Wait(p)
		p.BlockReason = ""
		if !mapOnly && cfg.DisablePipelining {
			// Ablation: communication starts only after the task's read
			// and computation finish, as in Hadoop's shuffle.
			var sg sim.WaitGroup
			sendAll(&sg)
			p.BlockReason = "net-send"
			sg.Wait(p)
			p.BlockReason = ""
		}
		mem.Free(sendBufMem)
		sendBufHeld -= sendBufMem

		if mapOnly && spec.Output != "" {
			// Attempt-scoped temp write; the tracker renames the winner's
			// file into place (exactly-once even under a speculative race).
			enc := job.EncodeTextOutput(parts[0])
			name := att.ScopedPath(fmt.Sprintf("%s/part-o-%05d", spec.Output, blk.ID))
			fw := e.FS.CreateScaled(name, node, emitScale)
			if err := fw.Write(p, enc); err != nil {
				return err
			}
			if err := fw.Close(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func splitTag(blk *dfs.Block) int { return int(blk.ID) + 1000 }

// runATask receives one message per input split, buffering the pairs in
// memory (spilling past the buffer limit), then sorts, groups, reduces
// and writes its output partition. Messages are deduplicated by split
// tag: when a straggling O attempt and its speculative backup both stream
// a split's partition, the bytes cross the network twice but only the
// first delivery is kept.
//
// Node-failure recovery: a restarted attempt (the rank re-homed onto a
// healthy node) flushes its mailbox and asks for an O-side replay round —
// the same tag dedup that absorbs speculative duplicates lets every live
// rank ignore the replayed streams while this one is fed from scratch.
func (e *Engine) runATask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, w *mpi.World, nO, a, totalSplits int, res *job.Result, rec *aRecovery, oSpans []uint64) error {
	cfg := &e.Cfg

	rank := nO + a
	node := att.Node()
	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskStart)
	mem.MustAlloc(cfg.ProcBaseMem)
	defer mem.Free(cfg.ProcBaseMem)
	if w.NodeOf(rank) != node {
		// The rank was re-homed off its failed preferred node: sends from
		// here on route to the new node.
		w.Rebind(rank, node)
	}
	if att.Index() > 0 {
		// Restarted after node failure: the buffered intermediate data and
		// mailbox died with the machine. Start empty and have the O side
		// replayed.
		w.Flush(rank)
		rec.ensureReplay(p.Engine().Now())
		res.AddCounter("a_restarts", 1)
	}

	var runs [][]kv.Pair
	bufferedNominal, bufferedMem, spilledNominal := 0.0, 0.0, 0.0
	// Registered before the receive loop so a kill mid-receive (node
	// failure) releases the buffered intermediate data.
	defer func() { mem.Free(bufferedMem) }()
	// One recv span covers the whole receive window. Its O-span deps make
	// the overlap visible to the critical-path walk: only the tail of the
	// receive past the last O task's completion sits on the path, which is
	// exactly the communication DataMPI does NOT hide.
	tsp := att.TraceSpan()
	var rsp *trace.Span
	if tr := att.Tracer(); tr != nil {
		rsp = tr.BeginChild(tsp, "recv", "net", node, tsp.Tid, p.Engine().Now())
	}
	var checkpointNominal float64
	seenTags := make(map[int]bool, totalSplits)
	for len(seenTags) < totalSplits {
		m := w.Recv(p, rank, mpi.AnySource, -1)
		if seenTags[m.Tag] {
			res.AddCounter("duplicate_bytes_nominal", int64(m.Nominal))
			continue
		}
		seenTags[m.Tag] = true
		att.Report(0.7 * float64(len(seenTags)) / float64(totalSplits))
		pairs := m.Payload.([]kv.Pair)
		if len(pairs) > 0 {
			runs = append(runs, pairs)
		}
		res.AddCounter("pipelined_bytes_nominal", int64(m.Nominal))
		bufferedNominal += m.Nominal
		bufferedMem += m.Nominal
		checkpointNominal += m.Nominal
		mem.MustAlloc(m.Nominal)
		if cfg.ABufferBytes > 0 && bufferedNominal > cfg.ABufferBytes {
			// Buffer overflow: spill the in-memory intermediate data.
			e.C.Node(node).Disk.Use(p, bufferedNominal, "shuffle-io")
			if e.Prof != nil {
				e.Prof.AddDiskWrite(node, bufferedNominal)
			}
			res.AddCounter("a_spill_bytes_nominal", int64(bufferedNominal))
			spilledNominal += bufferedNominal
			bufferedNominal = 0
			mem.Free(bufferedMem)
			bufferedMem = 0
		}
	}
	if rsp != nil {
		for _, id := range oSpans {
			rsp.DepOn(id)
		}
		rsp.Annotate("bytes", fmt.Sprintf("%.0f", checkpointNominal))
		rsp.EndAt(p.Engine().Now())
		tsp.DepOn(rsp.ID)
	}

	// Key-value checkpoint: the intermediate data is durably written to
	// the DFS so a failed A task can restart without rerunning O tasks.
	if cfg.Checkpoint && checkpointNominal > 0 && spec.Output != "" {
		ckActual := int(checkpointNominal / spec.EmitScale())
		cw := e.FS.CreateScaled(fmt.Sprintf("%s/_checkpoint/a-%05d", spec.Output, a), node, spec.EmitScale())
		if err := cw.Write(p, make([]byte, ckActual)); err != nil {
			return err
		}
		if err := cw.Close(p); err != nil {
			return err
		}
	}

	if cfg.FailATask == a {
		// Injected failure: the task dies after receiving its data. The
		// runtime detects it and respawns the task, which recovers the
		// intermediate data from the checkpoint (or, without
		// checkpointing, the job fails).
		e.Cfg.FailATask = -1
		if !cfg.Checkpoint {
			// The deferred release frees the buffered data.
			return fmt.Errorf("datampi: A task %d failed with no checkpoint", a)
		}
		p.Sleep(cfg.RestartDelay)
		mem.Free(bufferedMem)
		bufferedMem = 0
		// Restart: read the checkpoint back from the DFS.
		ck, err := e.FS.Open(fmt.Sprintf("%s/_checkpoint/a-%05d", spec.Output, a))
		if err != nil {
			return fmt.Errorf("datampi: restart: %w", err)
		}
		for _, blk := range ck.Blocks {
			if _, err := e.FS.ReadBlock(p, blk, node); err != nil {
				return err
			}
		}
		mem.MustAlloc(checkpointNominal)
		bufferedMem = checkpointNominal
		bufferedNominal = checkpointNominal
		spilledNominal = 0
	}

	totalNominal := bufferedNominal + spilledNominal
	var wg sim.WaitGroup
	if spilledNominal > 0 {
		wg.Add(1)
		e.C.Node(node).Disk.Start(spilledNominal, wg.Done)
		if e.Prof != nil {
			e.Prof.AddDiskRead(node, spilledNominal)
		}
	}
	// Sort + merge + reduce CPU. The A side performs the only sort in the
	// pipeline (the O side does not pre-sort).
	var all []kv.Pair
	for _, r := range runs {
		all = append(all, r...)
	}
	kv.SortPairs(all)
	nominalRecords := float64(len(all)) * spec.EmitScale()
	cpuSec := spec.CPUAdjust(e.Name()) * (cfg.CPUPerByteA*spec.ReduceCPUFactor*totalNominal +
		cfg.CPUPerByteSort*totalNominal +
		cfg.CPUPerRecord*nominalRecords)
	wg.Add(1)
	e.C.Node(node).CPU.Start(cpuSec, wg.Done)
	if cfg.OverheadFactor > 0 {
		wg.Add(1)
		e.C.Node(node).CPU.Start(cfg.OverheadFactor*cpuSec, wg.Done)
	}
	p.BlockReason = "disk"
	wg.Wait(p)
	p.BlockReason = ""

	reduced := spec.GroupReduce(all)
	res.OutRecords += int64(len(reduced))
	if spec.Output != "" {
		enc := job.EncodeTextOutput(reduced)
		name := att.ScopedPath(fmt.Sprintf("%s/part-a-%05d", spec.Output, a))
		fw := e.FS.CreateScaled(name, node, spec.EmitScale())
		if err := fw.Write(p, enc); err != nil {
			return err
		}
		if err := fw.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// AttachProfiler wires a resource profiler into the engine.
func (e *Engine) AttachProfiler(p *metrics.Profiler) { e.Prof = p }
