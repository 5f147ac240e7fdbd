package harness

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

// The kernelchurn experiment measures the simulator itself, not the
// simulated systems: a task-churn scale scenario with >1k concurrent
// fluid flows, heavy timer cancellation (watchdogs plus mid-flight task
// kills), and constant flow arrival/completion — the regime BigDataBench
// mixed-tenancy traces push the kernel into, where per-event rescans
// would make the simulator the bottleneck. It reports the kernel's
// wall-clock cost and the simulated outcome (peak concurrency, cancels,
// makespan); the makespan is pinned against the rescan allocators'
// value by TestDifferentialKernelChurn.

// churnTransfer is one scripted network transfer.
type churnTransfer struct {
	dst   int
	bytes float64
}

// churnRound is one scripted work phase of a worker.
type churnRound struct {
	cpuSec    float64
	diskBytes float64
	transfers []churnTransfer
	pause     float64
}

// churnWorker is a fully precomputed work script, so every run executes
// the exact same scenario.
type churnWorker struct {
	node     int
	delay    float64
	rounds   []churnRound
	cancelAt float64 // <0: never cancelled
}

// churnScript generates the deterministic scenario for a given size.
func churnScript(workers, nodes int, seed int64) []churnWorker {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]churnWorker, workers)
	for w := range ws {
		wk := &ws[w]
		wk.node = w % nodes
		wk.delay = rng.Float64() * 2
		wk.cancelAt = -1
		if rng.Float64() < 0.20 {
			wk.cancelAt = 2 + rng.Float64()*20
		}
		nr := 3 + rng.Intn(4)
		wk.rounds = make([]churnRound, nr)
		for r := range wk.rounds {
			rd := &wk.rounds[r]
			rd.cpuSec = 0.02 + rng.Float64()*0.3
			rd.diskBytes = (1 + rng.Float64()*15) * cluster.MB
			nt := 1 + rng.Intn(3)
			rd.transfers = make([]churnTransfer, nt)
			for t := range rd.transfers {
				dst := rng.Intn(nodes)
				rd.transfers[t] = churnTransfer{dst: dst, bytes: (0.5 + rng.Float64()*8) * cluster.MB}
			}
			rd.pause = rng.Float64() * 0.2
		}
	}
	return ws
}

// ChurnResult summarizes one kernelchurn run.
type ChurnResult struct {
	Workers   int
	Cancelled int
	PeakFlows int // max concurrent fluid flows observed (fabric + CPUs + disks)
	SimTime   float64
	Wall      time.Duration
}

// KernelChurn runs the task-churn scale scenario on a fresh kernel. The
// scenario is bit-for-bit deterministic for a fixed seed, so two runs
// produce identical simulated timelines.
func KernelChurn(workers int, seed int64) (ChurnResult, error) {
	const nodes = 16
	script := churnScript(workers, nodes, seed)

	eng := sim.NewEngine()
	fabric := sim.NewFabric(eng, nodes, 117*cluster.MB)
	cpus := make([]*sim.PSResource, nodes)
	disks := make([]*sim.PSResource, nodes)
	for i := 0; i < nodes; i++ {
		cpus[i] = sim.NewPSResource(eng, fmt.Sprintf("cpu[%d]", i), 8, 1)
		disks[i] = sim.NewPSResource(eng, fmt.Sprintf("disk[%d]", i), 120*cluster.MB, 130*cluster.MB)
	}

	res := ChurnResult{Workers: workers}
	live := 0
	for w := range script {
		wk := script[w]
		live++
		p := eng.Go(fmt.Sprintf("worker-%d", w), func(p *sim.Proc) {
			defer func() { live-- }()
			p.Node = wk.node
			p.Sleep(wk.delay)
			for _, rd := range wk.rounds {
				cpus[wk.node].Use(p, rd.cpuSec, "compute")
				disks[wk.node].Use(p, rd.diskBytes, "disk")
				var wg sim.WaitGroup
				wg.Add(len(rd.transfers))
				for _, tr := range rd.transfers {
					fabric.StartFlow(wk.node, tr.dst, tr.bytes, wg.Done)
				}
				// Watchdog timeout, cancelled on completion: the
				// speculation/preemption cancel-churn pattern that rots a
				// lazily-cleaned event heap. The cancel is deferred so a
				// worker killed while parked in wg.Wait unwinds through it
				// too — otherwise killed workers would leak watchdogs and
				// the simulated tail would measure ghost-timer drain.
				func() {
					watchdog := eng.Schedule(120, func() {})
					defer watchdog.Cancel()
					p.BlockReason = "shuffle-io"
					wg.Wait(p)
				}()
				p.Sleep(rd.pause)
			}
		})
		if wk.cancelAt >= 0 {
			proc := p
			at := wk.cancelAt
			eng.Schedule(at, func() {
				if !proc.Cancelled() {
					res.Cancelled++
					proc.Cancel()
				}
			})
		}
	}

	// Concurrency monitor: samples total in-flight fluid flows while
	// workers remain, for the >=1k-concurrent-flows claim.
	var monitor func()
	monitor = func() {
		n := fabric.ActiveFlows()
		for i := 0; i < nodes; i++ {
			n += cpus[i].ActiveFlows() + disks[i].ActiveFlows()
		}
		if n > res.PeakFlows {
			res.PeakFlows = n
		}
		if live > 0 {
			eng.Schedule(0.25, monitor)
		}
	}
	eng.Schedule(0.25, monitor)

	start := time.Now()
	if err := eng.Run(); err != nil {
		return res, fmt.Errorf("kernelchurn: %w", err)
	}
	res.Wall = time.Since(start)
	res.SimTime = eng.Now()
	return res, nil
}

func init() {
	register(Experiment{
		ID:    "kernelchurn",
		Title: "Kernel scale benchmark: >=1k concurrent flows with cancel churn",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "kernelchurn",
				Title:   "Simulator wall-clock under task churn",
				Columns: []string{"Workers", "PeakFlows", "Cancels", "SimTime(s)", "Wall(ms)"}}
			workers := 1400
			if opt.Quick {
				workers = 400
			}
			r, err := KernelChurn(workers, opt.seedOr(1))
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.PeakFlows),
				fmt.Sprintf("%d", r.Cancelled), fmt.Sprintf("%.2f", r.SimTime),
				fmt.Sprintf("%.0f", float64(r.Wall.Microseconds())/1000),
			})
			rep.Notes = append(rep.Notes,
				"workers run scripted cpu->disk->shuffle rounds with watchdog timers; 20% are killed mid-flight")
			if r.PeakFlows < 1000 && !opt.Quick {
				rep.Notes = append(rep.Notes, fmt.Sprintf("WARNING: peak concurrency %d below the 1k target", r.PeakFlows))
			}
			return rep, nil
		},
	})
}
