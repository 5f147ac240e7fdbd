package harness

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
)

// QueueChurn is the scheduler-layer counterpart of KernelScale: it pushes
// hundreds to thousands of jobs through a sched.Queue in discard mode and
// measures bytes allocated per job, which must stay flat as the submitted
// count grows. Jobs run on a stub engine whose tasks are pure scheduler
// work (slot acquisition, tracker attempts, timed sleeps), so the numbers
// isolate the queue/pool/tracker machinery the O(active) refactor
// bounds: pending admissions sit in one time-ordered heap behind a
// single re-armed timer, settled submissions and tracker tasks compact
// out, and the Fair dispatch walks a deficit heap instead of every
// waiter. Arrival rate is held under the stub cluster's service capacity
// so the queue depth — and therefore live memory — is bounded no matter
// how long the trace runs.

// churnTasksPerJob is the stub job's task count; churnSlotsPerNode sizes
// the shared pool the tasks contend for.
const (
	churnTasksPerJob  = 4
	churnSlotsPerNode = 4
	churnRate         = 3.0 // arrivals/s, under the ~4.5 jobs/s capacity
)

// churnEngine is a stub sched.Engine: Submit spawns a driver proc that
// launches tracker tasks whose bodies only sleep. It exists so the churn
// benchmark exercises exactly the scheduling layer, with no DFS or
// shuffle allocations mixed into the measurement.
type churnEngine struct {
	c    *cluster.Cluster
	seed int64
	next int64 // per-submission RNG stream index
}

func (e *churnEngine) Name() string              { return "churn" }
func (e *churnEngine) Cluster() *cluster.Cluster { return e.c }
func (e *churnEngine) Run(spec job.Spec) job.Result {
	panic("churnEngine is queue-only; use Submit")
}

func (e *churnEngine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	eng := e.c.Eng
	res := job.Result{Engine: e.Name(), Job: spec.Name, Start: eng.Now()}
	rng := rand.New(rand.NewSource(e.seed + e.next))
	e.next++
	eng.Go("churn:"+spec.Name, func(driver *sim.Proc) {
		driver.Sleep(0.05) // job-init handshake
		pool := ctl.Pool("churn", churnSlotsPerNode)
		var wg sim.WaitGroup
		for t := 0; t < churnTasksPerJob; t++ {
			wg.Add(1)
			dur := 0.5 + rng.Float64()*2.0
			node := rng.Intn(e.c.N())
			ctl.Launch(sched.TaskSpec{
				Name:        fmt.Sprintf("%s/t%d", spec.Name, t),
				Node:        node,
				Pool:        pool,
				Group:       "churn",
				Restartable: true,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					p.Sleep(dur)
					return nil, nil
				},
				Final: wg.Done,
			})
		}
		wg.Wait(driver)
		res.End = eng.Now()
		res.Elapsed = res.End - res.Start
		if done != nil {
			done(res)
		}
	})
}

// QueueChurnResult summarizes one QueueChurn run.
type QueueChurnResult struct {
	Jobs       int
	SimTime    float64
	Wall       time.Duration
	AllocBytes uint64 // total bytes allocated during the run
	AllocObjs  uint64 // total heap objects allocated during the run
}

// BytesPerJob is the headline flatness metric.
func (r QueueChurnResult) BytesPerJob() float64 { return float64(r.AllocBytes) / float64(r.Jobs) }

// AllocsPerJob is allocated heap objects per job.
func (r QueueChurnResult) AllocsPerJob() float64 { return float64(r.AllocObjs) / float64(r.Jobs) }

// QueueChurn admits jobs exponentially-spaced arrivals from three
// weighted tenants into a Fair queue in streaming/discard mode and runs
// the trace to completion, measuring total allocation from the runtime's
// monotonic counters (setup included). Speculation is enabled so the
// tracker's monitors run, though the short task bodies finish under
// MinRuntime and no backups spawn — the monitor cost is what's being
// bounded, not the backups.
func QueueChurn(jobs int, seed int64) (QueueChurnResult, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	c := cluster.New(cluster.DefaultHardware())
	e := &churnEngine{c: c, seed: seed + 1000}
	q := sched.NewQueue(c.Eng, c.N(), sched.Fair)
	q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
	q.DiscardSettled(true)

	tenants := []struct {
		name   string
		weight float64
	}{{"t-heavy", 2}, {"t-a", 1}, {"t-b", 1}}
	rng := rand.New(rand.NewSource(seed))
	at := 0.0
	for i := 0; i < jobs; i++ {
		at += -math.Log(1-rng.Float64()) / churnRate
		tn := tenants[i%len(tenants)]
		q.Admit(tn.name, at, tn.weight, e, job.Spec{Name: fmt.Sprintf("j%d", i)})
	}

	res := QueueChurnResult{Jobs: jobs}
	q.Run()
	if q.Completed() != jobs {
		return res, fmt.Errorf("queuechurn: %d of %d jobs completed", q.Completed(), jobs)
	}
	res.Wall = time.Since(start)
	res.SimTime = c.Eng.Now()

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.AllocObjs = after.Mallocs - before.Mallocs
	return res, nil
}
