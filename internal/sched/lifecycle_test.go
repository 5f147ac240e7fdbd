package sched_test

import (
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/sched"
)

// Pre-tracker timings (seed 77, the testRig workload): the attempt-based
// lifecycle must not move a single event when speculation and preemption
// are off, so these must match to the last bit. Solo runs go through
// each engine's Run (drain accounting); queue runs through sched.Queue
// under both policies. The pins were first captured on the rescan fluid
// allocators and re-recorded on the incremental ones, which moved only
// Spark's solo and job-0 times, at the 13th significant digit.
var pr1Goldens = map[string]struct {
	solo  float64
	queue [2]float64 // FIFO == Fair for this uncontended pair
}{
	"Hadoop":  {24.075422262406022, [2]float64{15.075422262406024, 14.489117543645266}},
	"Spark":   {10.284867455998368, [2]float64{5.2848022849106266, 1.5165090039168541}},
	"DataMPI": {9.011275255000001, [2]float64{9.012376385875001, 8.7155390610500003}},
}

// TestLifecycleRefactorPreservesPR1Timings pins the speculation-off paths
// bit-for-bit to the pre-refactor scheduler.
func TestLifecycleRefactorPreservesPR1Timings(t *testing.T) {
	for name, want := range pr1Goldens {
		t.Run(name, func(t *testing.T) {
			fs, specs := testRig(t, 77)
			res := engineFor(name, fs).(job.Engine).Run(specs[0])
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Elapsed != want.solo {
				t.Fatalf("solo elapsed = %.17g, want %.17g (PR 1)", res.Elapsed, want.solo)
			}
			for _, policy := range []sched.Policy{sched.FIFO, sched.Fair} {
				fs, specs := testRig(t, 77)
				eng := engineFor(name, fs)
				q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), policy)
				for _, sp := range specs {
					q.Submit(eng, sp)
				}
				for i, r := range q.Run() {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					if r.Elapsed != want.queue[i] {
						t.Fatalf("%v job%d elapsed = %.17g, want %.17g (PR 1)",
							policy, i, r.Elapsed, want.queue[i])
					}
				}
			}
		})
	}
}

// stragglerRun executes one WordCount on a fresh testbed, optionally with
// node 7 slowed 4x and speculation on, and returns the elapsed time plus
// tracker stats.
func stragglerRun(t *testing.T, engine string, slow, speculate bool) (float64, sched.TrackerStats) {
	t.Helper()
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 64, Seed: 7})
	in := bdb.GenerateTextFile(fs, "/in", bdb.LDAWiki1W(), 8, 256*cluster.MB)
	spec := bdb.WordCountSpec(fs, in, "/out", 16)
	q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
	if speculate {
		q.SetSpeculation(sched.SpeculationConfig{Enabled: true, MinRuntime: 1, CheckInterval: 0.5})
	}
	if slow {
		c.SlowNode(7, 4)
	}
	q.Submit(engineFor(engine, fs), spec)
	res := q.Run()[0]
	if res.Err != nil {
		t.Fatalf("%s straggler run: %v", engine, res.Err)
	}
	// The output must stay correct when losers are killed mid-flight.
	want, err := job.RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := job.ReadTextOutput(fs, spec.Output)
	if !pairsEqual(sortedPairs(got), sortedPairs(want)) {
		t.Fatalf("%s speculative run corrupted output: got %d pairs, want %d",
			engine, len(got), len(want))
	}
	return res.Elapsed, q.TrackerStats()
}

// TestSpeculationRecoversStraggler injects one 4x-slow node and requires
// speculative execution to claw back a healthy fraction of the slowdown
// on every engine, deterministically.
func TestSpeculationRecoversStraggler(t *testing.T) {
	for _, engine := range []string{"Hadoop", "Spark", "DataMPI"} {
		t.Run(engine, func(t *testing.T) {
			clean, _ := stragglerRun(t, engine, false, false)
			slow, _ := stragglerRun(t, engine, true, false)
			if slow <= clean {
				t.Fatalf("slow node had no effect: clean %.2f, slow %.2f", clean, slow)
			}
			spec, st := stragglerRun(t, engine, true, true)
			recovered := (slow - spec) / (slow - clean)
			if recovered < 0.30 {
				t.Fatalf("speculation recovered only %.0f%% of the slowdown (clean %.2f slow %.2f spec %.2f)",
					recovered*100, clean, slow, spec)
			}
			if st.Backups == 0 || st.BackupWins == 0 {
				t.Fatalf("no speculative wins recorded: %+v", st)
			}
			spec2, st2 := stragglerRun(t, engine, true, true)
			if spec2 != spec || st2 != st {
				t.Fatalf("speculative run not deterministic: %.17g vs %.17g, %+v vs %+v",
					spec, spec2, st, st2)
			}
		})
	}
}

// TestSubmitWeightedFavorsHeavyJob co-schedules two identical WordCounts
// under Fair and checks the weight-3 job finishes first while equal
// weights tie.
func TestSubmitWeightedFavorsHeavyJob(t *testing.T) {
	run := func(w float64) (float64, float64) {
		c := cluster.New(cluster.DefaultHardware())
		fs := dfs.New(c, dfs.Config{BlockSize: 1 * cluster.MB, Replication: 3, Scale: 64, Seed: 7})
		in1 := bdb.GenerateTextFile(fs, "/in/one", bdb.LDAWiki1W(), 8, 64*cluster.MB)
		in2 := bdb.GenerateTextFile(fs, "/in/two", bdb.LDAWiki1W(), 9, 64*cluster.MB)
		eng := mr.New(fs, mr.DefaultConfig())
		q := sched.NewQueue(c.Eng, c.N(), sched.Fair)
		q.SubmitWeighted(0, w, eng, bdb.WordCountSpec(fs, in1, "/out/one", 16))
		q.SubmitWeighted(0, 1, eng, bdb.WordCountSpec(fs, in2, "/out/two", 16))
		res := q.Run()
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return res[0].Elapsed, res[1].Elapsed
	}
	e1, e2 := run(1)
	if d := e1/e2 - 1; d < -0.01 || d > 0.01 {
		t.Fatalf("equal weights should finish together (data noise aside): %.2f vs %.2f", e1, e2)
	}
	h1, h2 := run(3)
	if h1 >= h2 {
		t.Fatalf("weight-3 job (%.2f) should beat weight-1 job (%.2f)", h1, h2)
	}
	if h1 >= e1 {
		t.Fatalf("extra weight should shorten the heavy job: %.2f vs %.2f unweighted", h1, e1)
	}
}
