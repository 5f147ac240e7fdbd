package harness

import (
	"fmt"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sched"
)

// The datacenter trace is the BigDataBench internet-services shape the
// paper's one-job-at-a-time tables never exercise: thousands of queued
// jobs from Hadoop, Spark and DataMPI tenants sharing one cluster, plus
// a closed-loop population of interactive users whose next query waits
// on their previous answer. It exists to prove the O(active) scheduler:
// the full trace runs with a streaming report (settled jobs compact out
// of the queue as they finish), so memory tracks queued+running jobs,
// not the thousands submitted. BenchmarkQueueChurn pins that flatness;
// this experiment shows the same machinery end to end with per-tenant
// latency distributions.

// dcReducers keeps the per-job task count small: the trace's point is
// job churn through the scheduler, not intra-job parallelism.
const dcReducers = 4

// runDatacenter stages tiny shared inputs once and runs the four-tenant
// trace: three open-loop Poisson batch streams (one per framework) and
// one closed-loop interactive tenant sharing the DataMPI engine with
// the batch stream it competes against.
func runDatacenter(rc RigConfig, nominal float64, batchPerTenant, users, jobsPerUser int, rate, thinkMean float64) (*datampi.Report, error) {
	rig := NewRig(DataMPI, rc)
	mrEng := datampi.NewHadoop(rig.FS)
	rddEng := datampi.NewSpark(rig.FS)
	dmEng := rig.Sched()

	wcIn := bdb.GenerateTextFile(rig.FS, "/dc/wc-in", bdb.LDAWiki1W(), rc.Seed+21, nominal)
	grepIn := bdb.GenerateTextFile(rig.FS, "/dc/grep-in", bdb.LDAWiki1W(), rc.Seed+22, nominal)
	sortIn := bdb.GenerateTextFile(rig.FS, "/dc/sort-in", bdb.LDAWiki1W(), rc.Seed+23, nominal)
	qIn := bdb.GenerateTextFile(rig.FS, "/dc/q-in", bdb.LDAWiki1W(), rc.Seed+24, nominal)

	opts := []datampi.ScenarioOption{
		datampi.WithPolicy(sched.Fair),
		datampi.WithSpeculation(sched.SpeculationConfig{Enabled: true}),
		datampi.WithStreamingReport(),
		datampi.Tenant("hadoop-batch", 1, mrEng),
		datampi.PoissonArrivals("hadoop-batch", rate, batchPerTenant, rc.Seed+31, func(i int) datampi.Job {
			return bdb.WordCountSpec(rig.FS, wcIn, fmt.Sprintf("/dc/h-out-%d", i), dcReducers)
		}),
		datampi.Tenant("spark-batch", 1, rddEng),
		datampi.PoissonArrivals("spark-batch", rate, batchPerTenant, rc.Seed+32, func(i int) datampi.Job {
			return bdb.GrepSpec(rig.FS, grepIn, fmt.Sprintf("/dc/s-out-%d", i), GrepPattern, dcReducers)
		}),
		datampi.Tenant("datampi-batch", 1, dmEng),
		datampi.PoissonArrivals("datampi-batch", rate, batchPerTenant, rc.Seed+33, func(i int) datampi.Job {
			return bdb.TextSortSpec(rig.FS, sortIn, fmt.Sprintf("/dc/d-out-%d", i), dcReducers)
		}),
		// The interactive tenant shares the DataMPI engine with its batch
		// stream: Fair share (weight 2) is what keeps query latency sane
		// while the batch backlog drains.
		datampi.Tenant("interactive", 2, dmEng),
		datampi.ClosedLoopUsers("interactive", users, jobsPerUser, thinkMean, rc.Seed+34, func(user, k int) datampi.Job {
			return bdb.GrepSpec(rig.FS, qIn, fmt.Sprintf("/dc/q-out-%d-%d", user, k), GrepPattern, dcReducers)
		}),
	}
	return datampi.NewScenario(rig.Testbed(), opts...).Run()
}

func init() {
	register(Experiment{
		ID:    "datacenter",
		Title: "Datacenter trace (beyond the paper): thousands of queued jobs, 3 engine tenants + closed-loop users",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "datacenter",
				Title: "Per-tenant latency across a streamed multi-engine trace (O(active) scheduler state)",
				Columns: []string{"Tenant", "Weight", "Jobs", "p50(s)", "p95(s)", "p99(s)",
					"Mean(s)", "SlotShare"}}
			// Full mode: 3x550 Poisson + 50 users x 10 queries = 2,150
			// jobs, comfortably past the 2,000-job acceptance bar. Quick
			// mode keeps the same four-tenant shape at CI size.
			batch, users, perUser := 550, 50, 10
			rate, think := 0.5, 40.0
			nominalGB := 0.25 // one 256 MB block per input: churn, not volume
			if opt.Quick {
				batch, users, perUser = 60, 12, 5
				rate, think = 0.4, 30.0
			}
			rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
			srep, err := runDatacenter(rc, nominalGB*cluster.GB, batch, users, perUser, rate, think)
			if err != nil {
				return nil, err
			}
			for _, tr := range srep.Tenants {
				rep.Rows = append(rep.Rows, []string{
					tr.Name, fmt.Sprintf("%g", tr.Weight), fmt.Sprintf("%d", tr.Jobs),
					fmtSecs(tr.Response.P50), fmtSecs(tr.Response.P95), fmtSecs(tr.Response.P99),
					fmtSecs(tr.Response.Mean), fmtPct(tr.SlotShare),
				})
			}
			st := srep.Tracker
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("%d jobs admitted; makespan %.0fs; report streamed (settled jobs compacted out of the live queue)",
					srep.Submitted, srep.Makespan),
				fmt.Sprintf("tracker: %d tasks, %d backups (%d wins), %d kills, %d preemptions",
					st.Tasks, st.Backups, st.BackupWins, st.Kills, st.Preemptions),
				"three Poisson batch tenants (WordCount on Hadoop, Grep on Spark, Text Sort on DataMPI) share the cluster",
				"the interactive tenant is a closed-loop think-time population: each user's next query waits for the last answer",
				"runs are deterministic: the same seeds reproduce this table bit for bit")
			return rep, nil
		},
	})
}
