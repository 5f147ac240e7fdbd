package harness

import (
	"fmt"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sched"
)

// The multi-tenant trace experiment goes beyond the paper's one-job-at-a-
// time benchmarking in the direction BigDataBench itself argues for:
// diverse workloads arriving over time on a shared cluster. Three tenants
// with different fair-share weights submit open-loop Poisson streams of
// WordCount, Grep and Text Sort jobs against the DataMPI engine; halfway
// through the trace one node degrades 4x (and later recovers) while
// speculative execution races backups against the stragglers. The report
// is per-tenant response-time latency (p50/p95/mean) plus slot-occupancy
// shares — the scheduling observability the paper's static tables lack.

// tenantsTrace describes one tenant's stream in the experiment.
type tenantsTrace struct {
	name   string
	weight float64
	rate   float64 // Poisson arrival rate, jobs per simulated second
	seed   int64
	mk     func(rig *Rig, nominal float64, i int) datampi.Job
}

func tenantsTraces() []tenantsTrace {
	return []tenantsTrace{
		{"analytics", 2, 0.030, 11, func(rig *Rig, nominal float64, i int) datampi.Job {
			in, _ := rig.FS.Open("/tenants/wc-in")
			return bdb.WordCountSpec(rig.FS, in, fmt.Sprintf("/tenants/wc-out-%d", i), rig.TasksPerNode*rig.Cluster.N())
		}},
		{"search", 1, 0.030, 12, func(rig *Rig, nominal float64, i int) datampi.Job {
			in, _ := rig.FS.Open("/tenants/grep-in")
			return bdb.GrepSpec(rig.FS, in, fmt.Sprintf("/tenants/grep-out-%d", i), GrepPattern, rig.TasksPerNode*rig.Cluster.N())
		}},
		{"pipeline", 1, 0.030, 13, func(rig *Rig, nominal float64, i int) datampi.Job {
			in, _ := rig.FS.Open("/tenants/sort-in")
			return bdb.TextSortSpec(rig.FS, in, fmt.Sprintf("/tenants/sort-out-%d", i), rig.TasksPerNode*rig.Cluster.N())
		}},
	}
}

// runTenants builds and runs the trace: jobsPerTenant Poisson arrivals
// for each of the three tenants, a 4x slow node mid-trace, recovery later.
func runTenants(rc RigConfig, nominal float64, jobsPerTenant int) (*datampi.Report, error) {
	rig := NewRig(DataMPI, rc)
	// Shared inputs, staged once: each tenant's stream re-queries the same
	// dataset (a fresh output path per arrival), the realistic shape of
	// repeated analytics over one corpus.
	bdb.GenerateTextFile(rig.FS, "/tenants/wc-in", bdb.LDAWiki1W(), rc.Seed+11, nominal)
	bdb.GenerateTextFile(rig.FS, "/tenants/grep-in", bdb.LDAWiki1W(), rc.Seed+12, nominal)
	bdb.GenerateTextFile(rig.FS, "/tenants/sort-in", bdb.LDAWiki1W(), rc.Seed+13, nominal)

	slowIdx := rig.Cluster.N() - 1
	opts := []datampi.ScenarioOption{
		datampi.WithPolicy(sched.Fair),
		datampi.WithSpeculation(sched.SpeculationConfig{Enabled: true}),
		datampi.At(tenantsSlowAt, datampi.SlowNode(slowIdx, tenantsSlowFactor)),
		datampi.At(tenantsRestoreAt, datampi.RestoreNode(slowIdx)),
	}
	for _, tt := range tenantsTraces() {
		tt := tt
		opts = append(opts,
			datampi.Tenant(tt.name, tt.weight, rig.Sched()),
			datampi.PoissonArrivals(tt.name, tt.rate, jobsPerTenant, rc.Seed+tt.seed,
				func(i int) datampi.Job { return tt.mk(rig, nominal, i) }),
		)
	}
	return datampi.NewScenario(rig.Testbed(), opts...).Run()
}

const (
	tenantsSlowAt     = 150.0 // mid-trace perturbation time (s)
	tenantsRestoreAt  = 320.0
	tenantsSlowFactor = 4.0
)

func init() {
	register(Experiment{
		ID:    "tenants",
		Title: "Multi-tenant trace (beyond the paper): 3 tenants, Poisson arrivals, mid-trace slow node",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "tenants",
				Title: "Per-tenant response times under a Poisson job mix with a timed perturbation",
				Columns: []string{"Tenant", "Weight", "Jobs", "p50(s)", "p95(s)",
					"Mean(s)", "SlotShare"}}
			jobsPerTenant := 8 // 24 jobs
			nominalGB := 2.0
			if opt.Quick {
				jobsPerTenant = 7 // 21 jobs, still a ≥20-job trace
				nominalGB = 1.0
			}
			rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
			srep, err := runTenants(rc, nominalGB*cluster.GB, jobsPerTenant)
			if err != nil {
				return nil, err
			}
			for _, tr := range srep.Tenants {
				rep.Rows = append(rep.Rows, []string{
					tr.Name, fmt.Sprintf("%g", tr.Weight), fmt.Sprintf("%d", tr.Jobs),
					fmtSecs(tr.Response.P50), fmtSecs(tr.Response.P95),
					fmtSecs(tr.Response.Mean), fmtPct(tr.SlotShare),
				})
			}
			for _, te := range srep.Timeline {
				rep.Notes = append(rep.Notes, fmt.Sprintf("timeline: t=%.0fs %s", te.T, te.Name))
			}
			arrivalSpan := 0.0
			for _, jr := range srep.Jobs {
				if jr.Arrival > arrivalSpan {
					arrivalSpan = jr.Arrival
				}
			}
			st := srep.Tracker
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("%d jobs arrived over %.0fs; last completion %.0fs; makespan %.0fs",
					len(srep.Jobs), arrivalSpan, srep.End, srep.Makespan),
				fmt.Sprintf("tracker: %d tasks, %d backups (%d wins), %d kills, %d preemptions, %d retries",
					st.Tasks, st.Backups, st.BackupWins, st.Kills, st.Preemptions, st.Retries),
				"response = completion - arrival (queueing included); jobs run Fair-share weighted 2:1:1 on DataMPI",
				fmt.Sprintf("one node degraded %gx mid-trace and later restored (the timeline above names it); speculation races backups meanwhile",
					tenantsSlowFactor),
				"runs are deterministic: the same seeds reproduce this table bit for bit")
			return rep, nil
		},
	})
}
