package core

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
)

// IterationJob is DataMPI's Iteration mode: persistent O tasks cache their
// input in memory across rounds (the data-centric property), compute and
// pipeline partial results to A tasks each round, and receive the merged
// global state back by broadcast for the next round. K-means is the
// paper's Iteration-mode application.
type IterationJob[S any] struct {
	Name        string
	Input       *dfs.File
	InputFormat job.Format
	Rounds      int // maximum rounds

	// LoadO converts one O task's input records to its cached local data.
	// Called once, before round 1.
	LoadO func(records []kv.Pair) any

	// RunO computes one round on the cached data given the current global
	// state, emitting keyed partial results for the A side.
	RunO func(round int, state S, cached any, emit job.Emit)

	// RunA folds one A task's received pairs into partial aggregates
	// (key-grouped, key-sorted).
	RunA func(round int, grouped []kv.Pair) []kv.Pair

	// MergeState combines all A partial aggregates into the next global
	// state; done=true stops the iteration (convergence).
	MergeState func(round int, state S, aggregates []kv.Pair) (next S, done bool)

	// CPUFactorO scales O-side per-byte CPU (distance computation etc.).
	CPUFactorO float64
	// StateNominalBytes is the broadcast size of the global state.
	StateNominalBytes float64
}

// IterationResult reports an Iteration-mode run.
type IterationResult[S any] struct {
	State      S
	Rounds     int
	Elapsed    float64
	FirstRound float64 // duration of round 1 including input load — the
	// paper's K-means comparison metric (Section 4.6)
	RoundTimes []float64
	Err        error
}

// RunIteration executes an Iteration-mode job. The initial state seeds
// round 1.
func RunIteration[S any](e *Engine, it IterationJob[S], initial S) IterationResult[S] {
	res := IterationResult[S]{}
	eng := e.C.Eng
	cfg := &e.Cfg
	scale := e.Scale()
	start := eng.Now()

	if it.CPUFactorO <= 0 {
		it.CPUFactorO = 1
	}
	blocks := it.Input.Blocks
	if len(blocks) == 0 {
		res.Err = fmt.Errorf("datampi: iteration job %s has empty input", it.Name)
		return res
	}

	state := initial
	var jobErr error
	err := e.RunSolo(func(ctl *sched.JobControl, done func()) {
		fr := e.Begin(ctl, it.Name, e.Name(), cfg.DaemonMem)
		nO := cfg.TasksPerNode * e.C.N()
		if nO > len(blocks) {
			nO = len(blocks)
		}
		nA := e.C.N() // one aggregator per node
		world := e.buildWorld(nO, nA)
		splitsOf := e.assignSplits(ctl.Placer(), blocks, nO, world)
		roundStart := start

		// Persistent task state.
		cached := make([]any, nO)
		cachedNominal := make([]float64, nO)

		var wg sim.WaitGroup
		eng.Go("datampi-iter:"+it.Name, func(driver *sim.Proc) {
			driver.Sleep(cfg.MPIRunLaunch)

			// Load phase: O tasks read and cache their splits.
			wg.Add(nO)
			for o := 0; o < nO; o++ {
				o := o
				eng.Go(fmt.Sprintf("O-load-%d", o), func(p *sim.Proc) {
					defer wg.Done()
					node := world.NodeOf(o)
					p.Node = node
					p.Sleep(cfg.TaskStart)
					e.C.Node(node).Mem.MustAlloc(cfg.ProcBaseMem)
					var recs []kv.Pair
					var inflated int
					for _, blk := range splitsOf[o] {
						var wgr sim.WaitGroup
						if err := e.FS.StartRead(blk, node, &wgr); err != nil {
							jobErr = err
							return
						}
						r, inf, err := job.Records(it.InputFormat, blk.Data)
						if err != nil {
							jobErr = err
							return
						}
						// Parse CPU overlapped with the read.
						wgr.Add(1)
						e.C.Node(node).CPU.Start(cfg.CPUPerByteO*float64(inf)*scale, wgr.Done)
						p.BlockReason = "disk"
						wgr.Wait(p)
						p.BlockReason = ""
						recs = append(recs, r...)
						inflated += inf
					}
					cached[o] = it.LoadO(recs)
					cachedNominal[o] = float64(inflated) * scale
					// Cached data stays resident for the whole job.
					e.C.Node(node).Mem.MustAlloc(cachedNominal[o])
				})
			}
			wg.Wait(driver)

			for round := 1; jobErr == nil && round <= it.Rounds; round++ {
				aggParts := make([][]kv.Pair, nA)
				// O compute + pipelined send.
				wg.Add(nO)
				for o := 0; o < nO; o++ {
					o := o
					eng.Go(fmt.Sprintf("O-r%d-%d", round, o), func(p *sim.Proc) {
						defer wg.Done()
						node := world.NodeOf(o)
						p.Node = node
						coll := kv.NewPartitionCollector(nA, 0, nil, kv.HashPartitioner{})
						it.RunO(round, state, cached[o], coll.Emit)
						parts, _, _ := coll.Finish()
						cpuSec := cfg.CPUPerByteO * it.CPUFactorO * cachedNominal[o]
						var wgo sim.WaitGroup
						wgo.Add(1)
						e.C.Node(node).CPU.Start(cpuSec, wgo.Done)
						for a := 0; a < nA; a++ {
							// Round results are aggregates (cardinality-bound),
							// charged unscaled.
							wgo.Add(1)
							world.Isend(o, nO+a, round, float64(kv.FramedBytes(parts[a])), parts[a], wgo.Done)
						}
						p.BlockReason = "cpu"
						wgo.Wait(p)
						p.BlockReason = ""
					})
				}
				// A aggregate.
				wg.Add(nA)
				for a := 0; a < nA; a++ {
					a := a
					eng.Go(fmt.Sprintf("A-r%d-%d", round, a), func(p *sim.Proc) {
						defer wg.Done()
						rank := nO + a
						node := world.NodeOf(rank)
						p.Node = node
						var all []kv.Pair
						totalNominal := 0.0
						for i := 0; i < nO; i++ {
							m := world.Recv(p, rank, -1, round)
							all = append(all, m.Payload.([]kv.Pair)...)
							totalNominal += m.Nominal
						}
						kv.SortPairs(all)
						e.C.Node(node).CPU.Use(p, cfg.CPUPerByteA*totalNominal+cfg.CPUPerRecord*float64(len(all))*scale, "cpu")
						aggParts[a] = it.RunA(round, all)
					})
				}
				wg.Wait(driver)
				var aggregates []kv.Pair
				for _, part := range aggParts {
					aggregates = append(aggregates, part...)
				}
				kv.SortPairs(aggregates)
				var stop bool
				state, stop = it.MergeState(round, state, aggregates)
				// Broadcast the new state for the next round (charged from
				// node 0 to all nodes).
				for n := 1; n < e.C.N(); n++ {
					e.C.Net.StartFlow(0, n, it.StateNominalBytes, nil)
				}
				now := eng.Now()
				res.RoundTimes = append(res.RoundTimes, now-roundStart)
				if round == 1 {
					res.FirstRound = now - start
				}
				roundStart = now
				res.Rounds = round
				if stop {
					break
				}
			}
			// Release cached data and process memory; every O rank holds
			// its process memory even when its load failed.
			for o := 0; o < nO; o++ {
				e.C.Node(world.NodeOf(o)).Mem.Free(cachedNominal[o] + cfg.ProcBaseMem)
			}
			driver.Sleep(cfg.JobFinalize)
			fr.End(eng.Now(), nil, nil)
			done()
		})
	})
	if err != nil && jobErr == nil {
		jobErr = err
	}
	res.State = state
	res.Elapsed = eng.Now() - start
	res.Err = jobErr
	return res
}
