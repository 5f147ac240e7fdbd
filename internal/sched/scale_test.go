package sched_test

// Scale tests for the O(active) scheduling layer: admissions at 2k-job
// scale fire in (time, submission-order) even when Admit is called out
// of order with duplicate timestamps; discard mode streams identical
// results while compacting the live set; and a 1k-handle churn through
// the indexed Fair dispatch is bit-deterministic across runs.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
)

// stubEngine is a minimal sched.Engine whose jobs launch sleep-body
// tracker tasks: pure scheduler work, no DFS or shuffle, so tests can
// push thousands of jobs through the queue in milliseconds.
type stubEngine struct {
	c            *cluster.Cluster
	tasksPerJob  int
	slotsPerNode int
	seed         int64
	next         int64

	// starts records job names in the order their engine Submit ran
	// (the admission order the queue promises).
	starts []string
	// grants records task-attempt names in the order their bodies began
	// running — i.e. the order the slot pool granted slots.
	grants []string
}

func (e *stubEngine) Name() string              { return "stub" }
func (e *stubEngine) Cluster() *cluster.Cluster { return e.c }
func (e *stubEngine) Run(spec job.Spec) job.Result {
	panic("stubEngine is queue-only")
}

func (e *stubEngine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	eng := e.c.Eng
	e.starts = append(e.starts, spec.Name)
	res := job.Result{Engine: e.Name(), Job: spec.Name, Start: eng.Now()}
	rng := rand.New(rand.NewSource(e.seed + e.next))
	e.next++
	eng.Go("stub:"+spec.Name, func(driver *sim.Proc) {
		driver.Sleep(0.01)
		pool := ctl.Pool("stub", e.slotsPerNode)
		var wg sim.WaitGroup
		for t := 0; t < e.tasksPerJob; t++ {
			wg.Add(1)
			name := fmt.Sprintf("%s/t%d", spec.Name, t)
			dur := 0.2 + rng.Float64()
			node := rng.Intn(e.c.N())
			ctl.Launch(sched.TaskSpec{
				Name: name, Node: node, Pool: pool, Group: "stub", Restartable: true,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					e.grants = append(e.grants, name)
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

// scaleTrace is one deterministic 2k-submission trace: arrival times
// drawn with many exact duplicates (quantized to 0.5s) and the Admit
// calls issued in shuffled order, so the pending heap — not call order —
// must produce the (time, submission-order) firing.
type scaleTraceEntry struct {
	name   string
	at     float64
	tenant string
	weight float64
}

func scaleTrace(jobs int, seed int64) []scaleTraceEntry {
	rng := rand.New(rand.NewSource(seed))
	tenants := []struct {
		name   string
		weight float64
	}{{"gold", 3}, {"silver", 2}, {"bronze", 1}}
	entries := make([]scaleTraceEntry, jobs)
	for i := range entries {
		tn := tenants[i%len(tenants)]
		entries[i] = scaleTraceEntry{
			name:   fmt.Sprintf("j%04d", i),
			at:     float64(rng.Intn(2*jobs)) * 0.5, // heavy duplicate timestamps
			tenant: tn.name,
			weight: tn.weight,
		}
	}
	// Shuffle the Admit call order away from arrival order.
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

func runScaleTrace(jobs int, seed int64, discard bool) (*sched.Queue, *stubEngine, []string) {
	c := cluster.New(cluster.DefaultHardware())
	e := &stubEngine{c: c, tasksPerJob: 2, slotsPerNode: 4, seed: seed + 500}
	q := sched.NewQueue(c.Eng, c.N(), sched.Fair)
	q.DiscardSettled(discard)
	var completions []string
	q.OnComplete(func(s *sched.Submission) {
		completions = append(completions, s.Name())
	})
	for _, en := range scaleTrace(jobs, seed) {
		q.Admit(en.tenant, en.at, en.weight, e, job.Spec{Name: en.name})
	}
	q.Run()
	return q, e, completions
}

// TestAdmitScaleFiresInTimeOrder pins the pending-heap admission order
// across 2,000 weighted submissions with out-of-order Admit calls and
// duplicate arrival timestamps: engines must see jobs in (arrival time,
// Admit order), and every job must complete.
func TestAdmitScaleFiresInTimeOrder(t *testing.T) {
	const jobs = 2000
	q, e, _ := runScaleTrace(jobs, 42, false)
	if q.Completed() != jobs {
		t.Fatalf("completed %d of %d jobs", q.Completed(), jobs)
	}
	if len(e.starts) != jobs {
		t.Fatalf("engine saw %d submissions, want %d", len(e.starts), jobs)
	}
	// Reconstruct the expected firing order: stable sort of the trace by
	// arrival time — stability preserves Admit order on duplicate
	// timestamps, which is exactly the queue's contract.
	entries := scaleTrace(jobs, 42)
	type keyed struct {
		name string
		at   float64
		idx  int
	}
	expect := make([]keyed, len(entries))
	for i, en := range entries {
		expect[i] = keyed{en.name, en.at, i}
	}
	for i := 1; i < len(expect); i++ {
		for j := i; j > 0 && (expect[j].at < expect[j-1].at ||
			(expect[j].at == expect[j-1].at && expect[j].idx < expect[j-1].idx)); j-- {
			expect[j], expect[j-1] = expect[j-1], expect[j]
		}
	}
	for i := range expect {
		if e.starts[i] != expect[i].name {
			t.Fatalf("admission %d: engine saw %s, want %s (at=%v)",
				i, e.starts[i], expect[i].name, expect[i].at)
		}
	}
	// The retained path keeps every submission live.
	if got := len(q.Submissions()); got != jobs {
		t.Fatalf("retained run kept %d submissions, want %d", got, jobs)
	}
}

// TestDiscardStreamsIdenticalResults runs the same 2k trace retained and
// in discard mode: completions arrive in the same order with identical
// response statistics (the streamed path must not change the schedule),
// and the discard run's live submission set compacts to a small fraction
// of the trace — the O(active) memory claim at the queue level.
func TestDiscardStreamsIdenticalResults(t *testing.T) {
	const jobs = 2000
	qr, _, compRetained := runScaleTrace(jobs, 42, false)
	qd, _, compDiscard := runScaleTrace(jobs, 42, true)
	if qr.Completed() != jobs || qd.Completed() != jobs {
		t.Fatalf("completions: retained %d, discard %d, want %d", qr.Completed(), qd.Completed(), jobs)
	}
	if len(compRetained) != len(compDiscard) {
		t.Fatalf("completion streams differ in length: %d vs %d", len(compRetained), len(compDiscard))
	}
	for i := range compRetained {
		if compRetained[i] != compDiscard[i] {
			t.Fatalf("completion %d: retained %s, discard %s", i, compRetained[i], compDiscard[i])
		}
	}
	// Steady-state arrival rate is under service capacity, so the live
	// set at any moment — and therefore after the final compaction — is
	// far smaller than the submitted count.
	if live := len(qd.Submissions()); live >= jobs/4 {
		t.Fatalf("discard run still holds %d of %d submissions — settled jobs are not compacting out", live, jobs)
	}
	if qd.Outstanding() != 0 || qd.Pending() != 0 {
		t.Fatalf("discard run left outstanding=%d pending=%d", qd.Outstanding(), qd.Pending())
	}
}

// TestPoolChurnDeterministicGrants runs a 1k-handle churn through the
// indexed Fair dispatch twice and pins the two grant sequences against
// each other bit for bit: no map-iteration order may leak into grants.
func TestPoolChurnDeterministicGrants(t *testing.T) {
	const jobs = 1000
	run := func() []string {
		_, e, _ := runScaleTrace(jobs, 99, true)
		return append([]string(nil), e.grants...)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no grants recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("grant sequences differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant %d diverges: %s vs %s", i, a[i], b[i])
		}
	}
}
