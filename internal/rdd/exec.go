package rdd

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// stage is a maximal chain of narrow ops rooted at a source RDD, a cached
// RDD, or a wide (shuffle) dependency.
type stage struct {
	root     *RDD // source or post-shuffle RDD at the bottom of the chain
	narrow   []*narrowOp
	target   *RDD    // the RDD this stage materializes
	consumer *wideOp // the shuffle this stage feeds (nil for the last stage)

	// fromCache marks a stage planned to read the root RDD's cached
	// partitions; cache is the snapshot it reads. The snapshot is taken
	// at plan time when the cache is already materialized, else at stage
	// start (the producing stage ran earlier in the same action), so a
	// node failure invalidating the cache mid-action cannot dangle a
	// running stage — at worst the snapshot is gone before the stage
	// starts and the action fails cleanly for the caller to resubmit.
	fromCache bool
	cache     []partData

	// producer is the stage planned to materialize root's cache earlier
	// in this action (nil when the cache was resident at plan time). If
	// that materialization did not fit in executor memory, this stage
	// recomputes root from the producer's lineage instead, fed by the
	// producer's own shuffle input (in, inFetch).
	producer *stage
	in       []partData
	inFetch  *stageFetch
}

// plan walks the lineage and produces stages bottom-up, linking each
// stage to the wide op that consumes its output.
func plan(r *RDD) []*stage {
	var stages []*stage
	var walk func(r *RDD) *stage
	walk = func(r *RDD) *stage {
		switch {
		case r.cached && r.inCache:
			return &stage{root: r, target: r, fromCache: true, cache: r.cacheData}
		case r.source != nil:
			return &stage{root: r, target: r}
		case r.narrow != nil:
			par := r.narrow.parent
			var st *stage
			if par.cached {
				// Cut the stage at a cached parent: the parent is
				// materialized (and pinned) by its own stage, then this
				// chain reads from the cache.
				st = &stage{root: par, target: par, fromCache: true, cache: par.cacheData}
				if !par.inCache {
					st.producer = walk(par)
					stages = append(stages, st.producer)
				}
			} else {
				st = walk(par)
			}
			st.narrow = append(st.narrow, r.narrow)
			st.target = r
			return st
		case r.wide != nil:
			parent := walk(r.wide.parent)
			parent.consumer = r.wide
			stages = append(stages, parent)
			return &stage{root: r, target: r}
		default:
			panic("rdd: malformed lineage")
		}
	}
	last := walk(r)
	stages = append(stages, last)
	return stages
}

// JobResult reports one action's execution.
type JobResult struct {
	Elapsed float64
	Stages  []float64 // per-stage durations
	Err     error
}

// SaveAsTextFile computes the RDD and writes one part file per partition.
func (r *RDD) SaveAsTextFile(path string) JobResult {
	return r.eng.runAction(r, path, nil)
}

// Collect computes the RDD and returns all pairs (partition order).
func (r *RDD) Collect() ([]kv.Pair, JobResult) {
	var out []kv.Pair
	res := r.eng.runAction(r, "", func(parts []partData) {
		for _, pd := range parts {
			out = append(out, pd.pairs...)
		}
	})
	return out, res
}

// runAction executes the staged computation of target exclusively inside
// the simulation, optionally writing output or collecting results. It
// drives the simulation to completion; co-schedule actions through a
// sched.Queue instead.
func (e *Engine) runAction(target *RDD, outPath string, collect func([]partData)) JobResult {
	res := new(JobResult)
	start := e.C.Eng.Now()
	err := e.RunSolo(func(ctl *sched.JobControl, done func()) {
		e.submitAction("action", target, outPath, collect, ctl, res, func(JobResult) { done() })
	})
	if err != nil && res.Err == nil {
		res.Err = err
	}
	// Exclusive-run accounting: the action ends when the simulation drains
	// (trailing lazy GC frees included).
	res.Elapsed = e.C.Eng.Now() - start
	return *res
}

// submitAction spawns the action's driver and task processes. done
// (optional) runs in simulation context when the driver completes.
func (e *Engine) submitAction(name string, target *RDD, outPath string, collect func([]partData),
	ctl *sched.JobControl, res *JobResult, done func(JobResult)) {

	eng := e.C.Eng
	cfg := &e.Cfg
	// Executor residency: the worker daemon plus every executor's base heap.
	fr := e.Begin(ctl, name, e.Name(), cfg.DaemonMem+float64(cfg.WorkersPerNode)*cfg.ExecutorBaseMem)
	jsp := fr.Span

	stages := plan(target)
	slots := ctl.Pool("spark-worker", cfg.WorkersPerNode)

	var stageEnds []float64
	eng.Go("spark-driver", func(driver *sim.Proc) {
		if !e.appStarted {
			// Latch before sleeping so concurrently submitted actions do
			// not each pay the one-off SparkContext launch cost.
			e.appStarted = true
			driver.Sleep(cfg.AppLaunch)
		}
		var jobErr error
		var current []partData
		var pf *stageFetch // previous stage's shuffle-recovery context
		for si, st := range stages {
			isLast := si == len(stages)-1
			out, nf, err := e.runStage(driver, st, current, pf, slots, ctl, si, isLast, outPath, jsp)
			if err != nil {
				jobErr = err
				break
			}
			current = out
			pf = nf
			stageEnds = append(stageEnds, eng.Now())
		}
		if jobErr == nil && collect != nil {
			collect(current)
		}
		driver.Sleep(cfg.JobFinalize)
		endT := eng.Now()
		res.Elapsed = endT - fr.Start
		names := make([]string, len(stageEnds))
		for i := range names {
			names[i] = stageName(i)
		}
		res.Stages = fr.End(endT, names, stageEnds)
		res.Err = jobErr
		if done != nil {
			done(*res)
		}
	})
}

// taskIn is one stage task's immutable input — kept per stage so a lost
// shuffle output can be regenerated by re-running the producing task.
type taskIn struct {
	node    int
	pairs   []kv.Pair
	nominal float64
	blk     *dfs.Block // source tasks read this
	inflate float64    // decoded nominal bytes
	fetches []partData // post-shuffle tasks fetch these
	wide    *wideOp
}

// stageFetch is the shuffle-recovery context a stage hands its consumer:
// the producing tasks' immutable inputs plus dedup state, so a consumer
// whose fetch targets a dead node regenerates the producer's partitions
// inline on its own node (Spark's lost-shuffle-output recompute, without
// modeling the full stage-abort round trip). The first fetcher to notice
// a loss recomputes while siblings needing the same producer wait.
type stageFetch struct {
	eng    *Engine
	st     *stage
	inputs []taskIn
	prev   *stageFetch // the producing stage's own upstream, for recursion
	ctl    *sched.JobControl
	redone map[int][]partData // producer taskIdx -> regenerated partitions
	busy   map[int]bool
	cond   sim.Cond
	// spans holds the producing attempts' span IDs (task index order) so
	// the consuming stage's fetch spans can wire dependency edges.
	spans []uint64
}

// recover returns partition pi of the lost producer output pd, recomputing
// the producing task on the caller's node if no sibling already did.
// Cached-root producers recompute from the stage's plan-time cache
// snapshot; losing the executor cache itself drops the RDD for recompute
// on the next action (see Engine.dropCachesOn).
func (sf *stageFetch) recover(p *sim.Proc, att *sched.Attempt, node int, pd partData, pi int) (partData, error) {
	ti := pd.taskIdx
	for sf.busy[ti] {
		sf.cond.Wait(p, "recompute-wait")
	}
	if rep, ok := sf.redone[ti]; ok {
		return rep[pi], nil
	}
	sf.busy[ti] = true
	// The recompute parks on simulated I/O, so this attempt can be killed
	// mid-flight (preemption, a second node failure): release the claim on
	// the kill unwind too, or every sibling waiter deadlocks.
	defer func() {
		delete(sf.busy, ti)
		sf.cond.Broadcast()
	}()
	sf.ctl.Tracker().NoteRecompute()
	tin := &sf.inputs[ti]
	out, err := sf.eng.runTask(p, att, sf.st, node, tin.blk, tin.pairs, tin.nominal, tin.fetches, tin.wide, false, "", ti, sf.prev)
	if err != nil {
		return partData{}, err
	}
	sf.redone[ti] = out
	return out[pi], nil
}

// runStage executes one stage's tasks over worker slots and returns the
// materialized output partitions (input to the next stage) together with
// the recovery context the next stage fetches through.
func (e *Engine) runStage(driver *sim.Proc, st *stage, shuffleIn []partData, prevFetch *stageFetch,
	slots *sched.SlotPool, ctl *sched.JobControl, si int, isLast bool, outPath string,
	jsp *trace.Span) ([]partData, *stageFetch, error) {

	cfg := &e.Cfg

	var tasks []taskIn

	if st.fromCache && st.cache == nil {
		// The producing stage ran earlier in this action; pick up its
		// materialized partitions now.
		st.cache = st.root.cacheData
		if st.cache == nil && st.root.evicted {
			// They did not fit in executor memory, so Spark never cached
			// them: recompute from lineage like any uncached RDD, reading
			// whatever the producer read.
			p := st.producer
			st.root, st.fromCache, st.cache = p.root, p.fromCache, p.cache
			st.narrow = append(append([]*narrowOp(nil), p.narrow...), st.narrow...)
			shuffleIn, prevFetch = p.in, p.inFetch
		}
	}
	st.in, st.inFetch = shuffleIn, prevFetch

	switch {
	case st.fromCache:
		if st.cache == nil {
			// The cache was invalidated (node failure) between planning and
			// this stage, and re-materialization did not land. Fail the
			// action cleanly rather than deadlock on missing partitions.
			return nil, nil, fmt.Errorf("rdd: cached partitions lost with a failed node mid-job")
		}
		for _, pd := range st.cache {
			tasks = append(tasks, taskIn{node: pd.node, pairs: pd.pairs, nominal: pd.nominal})
		}
	case st.root.source != nil:
		blocks := st.root.source.Blocks
		if len(blocks) == 0 {
			return nil, nil, fmt.Errorf("rdd: empty input file")
		}
		nodeOf := ctl.Placer().Place(blocks)
		for i, blk := range blocks {
			tasks = append(tasks, taskIn{node: nodeOf[i], blk: blk})
		}
	case st.root.wide != nil:
		w := st.root.wide
		for pi := 0; pi < w.nParts; pi++ {
			tasks = append(tasks, taskIn{node: pi % e.C.N(), wide: w})
		}
	default:
		return nil, nil, fmt.Errorf("rdd: stage with no root")
	}

	// For post-shuffle stages the fetches are organized here: shuffleIn
	// contains one partData per (map task, reduce partition), tagged by
	// partition in nominal order. Build an index.
	var byPart map[int][]partData
	if st.root.wide != nil {
		byPart = make(map[int][]partData)
		for i, pd := range shuffleIn {
			pi := i % st.root.wide.nParts
			byPart[pi] = append(byPart[pi], pd)
		}
		for i := range tasks {
			tasks[i].fetches = byPart[i]
		}
	}

	// The recovery context carries the inputs just built; the next stage's
	// fetch loop recomputes through it when a producer's node dies.
	nf := &stageFetch{eng: e, st: st, inputs: tasks, prev: prevFetch, ctl: ctl,
		redone: make(map[int][]partData), busy: make(map[int]bool),
		spans: make([]uint64, len(tasks))}

	results := make([]partData, 0, len(tasks))
	var firstErr error
	var wg sim.WaitGroup
	wg.Add(len(tasks))
	for ti := range tasks {
		ti := ti
		tin := &tasks[ti]
		// Every stage's tasks are restartable: inputs (block, cache slice,
		// shuffle partData) are immutable, intermediate partitions publish
		// only through Done, and final-stage DFS writes go through the
		// attempt-scoped committer — so even output-writing tasks can race
		// speculative backups with exactly-once committed files.
		ctl.Launch(sched.TaskSpec{
			Name:        fmt.Sprintf("spark-task-%d", ti),
			Node:        tin.node,
			Pool:        slots,
			Group:       fmt.Sprintf("stage%d", si),
			Restartable: true,
			CommitFS:    e.FS,
			Pre:         func(p *sim.Proc) bool { return firstErr != nil },
			Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
				p.Sleep(cfg.TaskDispatch)
				att.Report(0.05)
				out, err := e.runTask(p, att, st, att.Node(), tin.blk, tin.pairs, tin.nominal, tin.fetches, tin.wide, isLast, outPath, ti, prevFetch)
				return out, err
			},
			Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
				results = append(results, v.([]partData)...)
				nf.spans[ti] = att.TraceSpan().SpanID()
				if isLast {
					jsp.DepOn(nf.spans[ti])
				}
				return nil
			},
			Fail: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
			Final: wg.Done,
		})
	}
	wg.Wait(driver)
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Cache materialization: pin this stage's output in executor memory.
	if st.target.cached && !st.target.inCache {
		total := map[int]float64{}
		for _, pd := range results {
			total[pd.node] += pd.nominal * cfg.ExpansionFactor
		}
		fits := true
		for n, b := range total {
			budget := float64(cfg.WorkersPerNode)*cfg.WorkerHeap - e.usedExecutorMem(n)
			if b > budget {
				fits = false
				break
			}
		}
		if fits {
			for _, pd := range results {
				e.C.Node(pd.node).Mem.MustAlloc(pd.nominal * cfg.ExpansionFactor)
			}
			st.target.cacheData = results
			st.target.inCache = true
			e.registerCached(st.target)
			if st.target.lostParts > 0 {
				// This materialization recomputed partitions that died with
				// a failed executor — charge them to the recovery counters.
				ctl.Tracker().NoteCacheRecomputes(st.target.lostParts)
				st.target.lostParts = 0
			}
		}
		// If it does not fit, Spark silently evicts: the RDD is simply
		// not cached and its consumers recompute it from lineage.
		st.target.evicted = !fits
	}
	return results, nf, nil
}

func (e *Engine) usedExecutorMem(node int) float64 {
	used := e.C.Node(node).Mem.Used() - e.Cfg.DaemonMem - float64(e.Cfg.WorkersPerNode)*e.Cfg.ExecutorBaseMem
	if used < 0 {
		used = 0
	}
	return used
}

// runTask executes one task of a stage: obtain input (block read, cache,
// or shuffle fetch), apply fused narrow ops, then either write shuffle
// output, write the final file, or hand back collected pairs. att is the
// owning attempt (nil when re-entered as a lost-shuffle recompute); prev
// is the upstream stage's recovery context for fetches that target dead
// nodes.
func (e *Engine) runTask(p *sim.Proc, att *sched.Attempt, st *stage, node int, blk *dfs.Block,
	cachedPairs []kv.Pair, cachedNominal float64, fetches []partData,
	wide *wideOp, isLast bool, outPath string, taskIdx int, prev *stageFetch) ([]partData, error) {

	cfg := &e.Cfg
	scale := e.Scale()
	eng := e.C.Eng
	tp := e.Transport()
	var pairs []kv.Pair
	var inputNominal float64
	cpuFactor := 1.0
	for _, n := range st.narrow {
		cpuFactor *= n.cpuFactor
	}

	var wg sim.WaitGroup
	var cpuSec float64

	switch {
	case blk != nil:
		recs, inflated, err := job.Records(st.root.format, blk.Data)
		if err != nil {
			return nil, fmt.Errorf("rdd: input: %w", err)
		}
		if err := e.FS.StartRead(blk, node, &wg); err != nil {
			return nil, err
		}
		pairs = recs
		inputNominal = float64(inflated) * scale
	case cachedPairs != nil:
		pairs = cachedPairs
		inputNominal = cachedNominal
	default:
		// Shuffle fetch: pull every map task's slice of this partition,
		// reporting fractional per-fetch progress so the straggler monitor
		// sees fetch rates rather than one opaque milestone. Fetch spans
		// chain to the previous fetch and depend on the producing task's
		// attempt span, so the shuffle's serialized wall time is a
		// dependency path the critical-path walk attributes to "net".
		var ftr *trace.Tracer
		var tsp *trace.Span
		if att != nil {
			ftr = att.Tracer()
			tsp = att.TraceSpan()
		}
		var lastFetch uint64
		totalNominal := 0.0
		buffered := 0.0
		for fi, pd := range fetches {
			if att != nil {
				att.Report(0.1 + 0.6*float64(fi)/float64(len(fetches)))
			}
			if pd.nominal == 0 {
				pairs = append(pairs, pd.pairs...)
				continue
			}
			if !e.C.Alive(pd.node) {
				// The materialized map output died with its node:
				// regenerate the producer's partitions locally (dedup'd
				// across fetchers) and pull this partition from there.
				rep, err := prev.recover(p, att, node, pd, taskIdx)
				if err != nil {
					return nil, err
				}
				pd = rep
				if pd.nominal == 0 {
					pairs = append(pairs, pd.pairs...)
					continue
				}
			}
			var fsp *trace.Span
			if ftr != nil {
				fsp = ftr.BeginChild(tsp, fmt.Sprintf("fetch:t%d", pd.taskIdx), "net", node, tsp.Tid, eng.Now()).
					Annotate("src", fmt.Sprintf("%d", pd.node)).
					Annotate("bytes", fmt.Sprintf("%.0f", pd.nominal))
				if prev != nil && pd.taskIdx < len(prev.spans) {
					fsp.DepOn(prev.spans[pd.taskIdx])
				}
				fsp.DepOn(lastFetch)
			}
			if e.Prof != nil {
				e.Prof.AddDiskRead(pd.node, pd.nominal)
			}
			// Wire (remote only) + deserialize on the fetching worker,
			// with per-record costs.
			tp.Fetch(p, pd.node, node, pd.nominal, pd.records)
			if fsp != nil {
				fsp.EndAt(eng.Now())
				lastFetch = fsp.ID
			}
			pairs = append(pairs, pd.pairs...)
			totalNominal += pd.nominal
			buffered += pd.nominal
			if buffered > cfg.ShuffleBufferBytes {
				// Spill fetched data past the buffer to local disk.
				e.C.Node(node).Disk.Use(p, buffered, "shuffle-io")
				if e.Prof != nil {
					e.Prof.AddDiskWrite(node, buffered)
				}
				buffered = 0
			}
		}
		tsp.DepOn(lastFetch)
		inputNominal = totalNominal

		// Materialization for the wide op: sort stages hold the whole
		// partition as objects — the OOM point.
		if wide != nil && wide.sorted {
			workingSet := inputNominal * cfg.ExpansionFactor * cfg.SortOverheadFactor
			if workingSet > cfg.WorkerHeap {
				return nil, &sim.OOMError{
					Account:   fmt.Sprintf("spark-worker[%d]", node),
					Requested: workingSet,
					Used:      0,
					Limit:     cfg.WorkerHeap,
				}
			}
		}
		// Transient working memory with GC lag.
		transient := inputNominal * cfg.ExpansionFactor
		mem := e.C.Node(node).Mem
		mem.MustAlloc(transient)
		defer mem.FreeLazy(eng, transient, cfg.GCLagSecs)

		if wide != nil {
			kv.SortPairs(pairs)
			cpuSec += cfg.CPUPerByteSort * inputNominal
			if wide.reduce != nil {
				pairs = kv.GroupReduce(pairs, wide.reduce)
			}
			cpuSec += cfg.CPUPerByteReduce * inputNominal
		}
	}

	if blk != nil {
		// Streaming stages hold only a window of the partition as live
		// objects (the iterator pipeline), not the whole expansion.
		transient := 0.35 * inputNominal * cfg.ExpansionFactor
		mem := e.C.Node(node).Mem
		mem.MustAlloc(transient)
		defer mem.FreeLazy(eng, transient, cfg.GCLagSecs)
	}

	// Record-processing CPU is charged on the records entering the stage
	// (shuffle-stage records saturate when the shuffle combined).
	recScale := scale
	if wide != nil && wide.combine != nil {
		recScale = 1
	}
	nominalRecords := float64(len(pairs)) * recScale

	// Apply the fused narrow chain (really).
	for _, n := range st.narrow {
		var out []kv.Pair
		n.f(pairs, func(pr kv.Pair) { out = append(out, pr) })
		pairs = out
	}
	cpuSec += cfg.CPUPerByteMap*cpuFactor*inputNominal + cfg.CPUPerRecord*nominalRecords

	wg.Add(1)
	e.C.Node(node).CPU.Start(cpuSec, wg.Done)
	if gc := e.JVMOverhead(node, cpuSec, cfg.GCFactor, cfg.MemPressureGC); gc > 0 {
		wg.Add(1)
		e.C.Node(node).CPU.Start(gc, wg.Done)
	}

	// Cardinality-bound data (outputs of combining shuffles) is charged
	// unscaled; see job.Spec.SaturatingIntermediate for the rule.
	outScale := scale
	if wide != nil && wide.combine != nil {
		outScale = 1
	}

	if isLast {
		p.BlockReason = "disk"
		wg.Wait(p)
		p.BlockReason = ""
		if att != nil {
			att.Report(0.9)
		}
		outNominal := float64(kv.FramedBytes(pairs)) * outScale
		if outPath != "" {
			// Attempt-scoped temp write; the tracker renames the winner's
			// part file into place.
			name := fmt.Sprintf("%s/part-%05d", outPath, taskIdx)
			if att != nil {
				name = att.ScopedPath(name)
			}
			if err := job.WriteTextOutput(p, e.FS, name, node, outScale, pairs); err != nil {
				return nil, err
			}
		}
		return []partData{{pairs: pairs, nominal: outNominal, node: node, taskIdx: taskIdx}}, nil
	}

	// Not the last stage: this stage feeds a wide op — write shuffle
	// output (Spark 0.8 hash shuffle materializes map outputs on the
	// local disks of the map side).
	next := st.consumer
	if next == nil {
		// Feeding a cached materialization without shuffle: building the
		// RDD's in-memory representation costs CPU (deserialization into
		// JVM objects — the "creates the RDD" cost of the paper's Spark
		// Stage 0).
		outNominal := float64(kv.FramedBytes(pairs)) * outScale
		if cfg.CacheCPUPerByte > 0 && st.target.cached {
			wg.Add(1)
			e.C.Node(node).CPU.Start(cfg.CacheCPUPerByte*outNominal, wg.Done)
		}
		p.BlockReason = "disk"
		wg.Wait(p)
		p.BlockReason = ""
		return []partData{{pairs: pairs, nominal: outNominal, node: node, taskIdx: taskIdx}}, nil
	}
	shufScale := scale
	if next.combine != nil {
		shufScale = 1
	}
	coll := kv.NewPartitionCollector(next.nParts, 0, next.combine, next.part)
	for _, pr := range pairs {
		coll.Emit(pr.Key, pr.Value)
	}
	parts, _, _ := coll.Finish()
	out := make([]partData, next.nParts)
	writeNominal := 0.0
	writeRecords := 0.0
	for pi, part := range parts {
		nom := float64(kv.FramedBytes(part)) * shufScale
		writeNominal += nom
		recs := float64(len(part)) * shufScale
		writeRecords += recs
		out[pi] = partData{pairs: part, nominal: nom, records: recs, node: node, taskIdx: taskIdx}
	}
	if writeNominal > 0 {
		wg.Add(1)
		e.C.Node(node).Disk.Start(writeNominal, wg.Done)
		if e.Prof != nil {
			e.Prof.AddDiskWrite(node, writeNominal)
		}
		// Shuffle-write serialization runs on the shuffle writer thread
		// (the consolidated emit constant, charged in both modes).
		if emit := tp.Profile().EmitCPUPerByte; emit > 0 {
			wg.Add(1)
			e.C.Node(node).CPU.Start(emit*writeNominal, wg.Done)
		}
		// Sender-side stages on top: serialize + copy (or zero-copy)
		// into the shuffle file's transfer buffers.
		wg.Add(1)
		tp.SendStages(node, writeNominal, writeRecords, wg.Done)
	}
	p.BlockReason = "disk"
	wg.Wait(p)
	p.BlockReason = ""
	return out, nil
}
