package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sched"
)

// The differential battery pins the kernel's incremental allocators to
// the rescan allocators they replaced: every scenario's per-job
// completion times must agree within relTol relative with the vectors
// the rescan allocators produced, recorded in
// testdata/reference_timings.json. (The rescan allocators themselves
// live on as the randomized oracle in internal/sim.)

const relTol = 1e-6

// readTestdata decodes the JSON file testdata/<name> into v.
func readTestdata(t *testing.T, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// assertClose compares a timing vector with its reference.
func assertClose(t *testing.T, scenario string, got, ref []float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: produced %d timings, reference has %d", scenario, len(got), len(ref))
	}
	for i := range got {
		denom := math.Abs(ref[i])
		if denom < 1 {
			denom = 1
		}
		if rel := math.Abs(got[i]-ref[i]) / denom; rel > relTol {
			t.Errorf("%s[%d]: %.12g vs reference %.12g (rel %.3g > %g)",
				scenario, i, got[i], ref[i], rel, relTol)
		}
	}
}

// battery runs fn and compares its timings with the rescan allocators'.
func battery(t *testing.T, scenario string, fn func() []float64) {
	t.Helper()
	var doc struct {
		Timings map[string][]float64 `json:"timings"`
	}
	readTestdata(t, "reference_timings.json", &doc)
	ref, ok := doc.Timings[scenario]
	if !ok {
		t.Fatalf("%s: no reference timings recorded", scenario)
	}
	assertClose(t, scenario, fn(), ref)
}

// TestDifferentialSoloJobs runs each mix job alone per framework.
func TestDifferentialSoloJobs(t *testing.T) {
	jobs := mixJobs()
	nominal := 2.0 * cluster.GB
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		fw := fw
		t.Run(fw.String(), func(t *testing.T) {
			battery(t, "solo/"+fw.String(), func() []float64 {
				rc := RigConfig{Scale: 8192, Seed: 1}
				var times []float64
				for ji := range jobs {
					res, err := runMixAlone(fw, rc, jobs, nominal, ji)
					if err != nil {
						t.Fatal(err)
					}
					times = append(times, res.Start, res.End, res.Elapsed)
				}
				return times
			})
		})
	}
}

// TestDifferentialMix co-schedules the three-job mix under both queue
// policies on each framework.
func TestDifferentialMix(t *testing.T) {
	jobs := mixJobs()
	nominal := 2.0 * cluster.GB
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		for _, policy := range []sched.Policy{sched.FIFO, sched.Fair} {
			fw, policy := fw, policy
			t.Run(fmt.Sprintf("%s/%v", fw, policy), func(t *testing.T) {
				battery(t, fmt.Sprintf("mix/%s/%v", fw, policy), func() []float64 {
					rc := RigConfig{Scale: 8192, Seed: 1}
					results, makespan, err := runMix(fw, rc, jobs, nominal, policy)
					if err != nil {
						t.Fatal(err)
					}
					times := []float64{makespan}
					for _, r := range results {
						times = append(times, r.Start, r.End, r.Elapsed)
					}
					return times
				})
			})
		}
	}
}

// TestDifferentialStragglerSpeculation runs the straggler scenario with
// one 4x-slow node and speculation on — the cancel-heavy path.
func TestDifferentialStragglerSpeculation(t *testing.T) {
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		fw := fw
		t.Run(fw.String(), func(t *testing.T) {
			battery(t, "straggler/"+fw.String(), func() []float64 {
				rc := RigConfig{Scale: 8192, Seed: 1}
				res, st, err := runStraggler(fw, rc, 2*cluster.GB, true, true)
				if err != nil {
					t.Fatal(err)
				}
				// Backup counts are discrete decisions driven by timing;
				// they must agree exactly, so fold them into the vector.
				return []float64{res.Start, res.End, res.Elapsed,
					float64(st.Backups), float64(st.BackupWins)}
			})
		})
	}
}

// TestDifferentialDelaySweep runs the gateway-staged locality sweep at a
// representative slack point.
func TestDifferentialDelaySweep(t *testing.T) {
	jobs := mixJobs()
	nominal := 2.0 * cluster.GB
	for _, slack := range []float64{0, 1} {
		slack := slack
		t.Run(fmt.Sprintf("slack=%g", slack), func(t *testing.T) {
			battery(t, fmt.Sprintf("delaysweep/%g", slack), func() []float64 {
				rc := RigConfig{Scale: 8192, Seed: 1, Replication: 1, Gateway: true}
				rig := NewRig(Hadoop, rc)
				specs := mixSpecs(rig, jobs, nominal, rc.Seed)
				q := sched.NewQueue(rig.Cluster.Eng, rig.Cluster.N(), sched.FIFO)
				q.SetLocalitySlack(slack)
				start := rig.Cluster.Eng.Now()
				for _, spec := range specs {
					q.Submit(rig.Sched(), spec)
				}
				results := q.Run()
				times := []float64{rig.Cluster.Eng.Now() - start}
				for _, r := range results {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					times = append(times, r.Start, r.End, r.Elapsed,
						float64(r.Counters["data_local_maps"]))
				}
				return times
			})
		})
	}
}

// TestDifferentialKernelChurn differences the raw-kernel churn scenario
// (its simulated makespan folds every flow completion in the run) and
// checks determinism across repeats. The cancel count is a discrete
// decision driven by timing, so it must match the reference exactly.
func TestDifferentialKernelChurn(t *testing.T) {
	churn := func() ChurnResult {
		res, err := KernelChurn(250, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := churn()
	battery(t, "kernelchurn", func() []float64 { return []float64{res.SimTime, float64(res.Cancelled)} })
	if again := churn(); again.SimTime != res.SimTime {
		t.Fatalf("not deterministic: %.17g vs %.17g", again.SimTime, res.SimTime)
	}
}
