package harness

import (
	"fmt"
	"sort"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
)

// The fault sweep exercises the failure axis the paper's clean-cluster
// benchmarking leaves out: nodes die mid-job and the frameworks must
// recover — Hadoop re-runs lost tasks and recomputes dead map outputs,
// Spark regenerates lost shuffle partitions, DataMPI re-homes the dead
// node's A ranks and replays the O side into them — while the DFS
// replication monitor restores the block replication factor underneath
// all of them. Text Sort is the workload: with no combiner, the full
// input crosses the shuffle, so intermediate state is live on every node
// for most of the job and a fault at any fraction of the clean runtime
// lands on something worth recovering.
//
// Three fault shapes run: "kill" (one node dies for good — the original
// sweep), "rack" (a whole rack dies and rejoins 40s later — the
// correlated failure rack-aware placement exists for), and "flap" (one
// node bounces twice — the failure-detector stress). The rack and flap
// shapes sweep the replication factor too: at replication >= 2 the
// faulted output is byte-checked against the clean run's; at replication
// 1 the fault is unsurvivable for the blocks it holds and the sweep
// asserts data loss is reported instead of the run deadlocking.

// faultKillNode is the node the sweep fails (the last node, which hosts
// map/reduce slots, Spark workers, and DataMPI O and A ranks alike).
func faultKillNode() int { return cluster.DefaultHardware().Nodes - 1 }

// faultRacks is the correlated-failure topology: 8 nodes in 4 racks.
const faultRacks = 4

// faultRun executes one Text Sort on a fresh rig with the replication
// monitor on, applying the given scenario events (none = clean run). It
// returns the job result, the scenario report, and the sorted output
// records; a job error comes back with the report still valid, so callers
// can inspect loss accounting on failed runs.
func faultRun(fw Framework, rc RigConfig, nominal float64, events ...datampi.ScenarioOption) (job.Result, *datampi.Report, []string, error) {
	rig := NewRig(fw, rc)
	in := bdb.GenerateTextFile(rig.FS, "/fault/in", bdb.LDAWiki1W(), rc.Seed+5, nominal)
	spec := bdb.TextSortSpec(rig.FS, in, "/fault/out", rig.TasksPerNode*rig.Cluster.N())
	opts := []datampi.ScenarioOption{
		datampi.Tenant("fault", 1, rig.Sched()),
		datampi.Arrive("fault", 0, spec),
		datampi.WithReplicationMonitor(datampi.ReplicationMonitorConfig{}),
	}
	opts = append(opts, events...)
	rep, err := datampi.NewScenario(rig.Testbed(), opts...).Run()
	if rep == nil {
		return job.Result{}, nil, nil, err
	}
	res := rep.Jobs[0].Result
	if res.Err != nil {
		return res, rep, nil, res.Err
	}
	out := make([]string, 0, 1024)
	for _, pr := range datampi.ReadTextOutput(rig.FS, "/fault/out") {
		out = append(out, pr.String())
	}
	sort.Strings(out)
	return res, rep, out, nil
}

func sameOutput(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultCase is one row of the correlated-failure grid.
type faultCase struct {
	fw    Framework
	fault string // "kill", "rack", "flap"
	repl  int
	frac  float64 // fault time as a fraction of the clean runtime
}

// events builds the scenario events for the case given the clean runtime.
func (fc faultCase) events(cleanElapsed float64) []datampi.ScenarioOption {
	at := fc.frac * cleanElapsed
	switch fc.fault {
	case "kill":
		return []datampi.ScenarioOption{datampi.At(at, datampi.NodeDown(faultKillNode()))}
	case "rack":
		return []datampi.ScenarioOption{
			datampi.At(at, datampi.RackDown(faultRacks-1)),
			datampi.At(at+40, datampi.RackUp(faultRacks-1)),
		}
	case "flap":
		return []datampi.ScenarioOption{datampi.At(at, datampi.Flap(faultKillNode(), 12, 30, 2))}
	}
	panic("unknown fault shape " + fc.fault)
}

func init() {
	register(Experiment{
		ID:    "faultsweep",
		Title: "Fault sweep (beyond the paper): kills, rack failures and flaps mid-job, per framework and replication factor",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "faultsweep",
				Title: "Text Sort under injected faults: recovery overhead, reconciliation and loss counters",
				Columns: []string{"Framework", "Fault", "Repl", "At(s)", "Clean(s)", "Fault(s)", "Overhead",
					"Recomputed", "Rerepl", "Cancelled", "Pruned", "LostMB", "Output"}}
			frameworks := []Framework{Hadoop, Spark, DataMPI}
			fracs := []float64{0.2, 0.45, 0.7}
			replAxis := []int{1, 2, 3}
			nominalGB := 8.0
			if opt.Quick {
				fracs = []float64{0.3, 0.6}
				replAxis = []int{1, 3}
				nominalGB = 4.0
			}
			baseRC := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
			nominal := nominalGB * cluster.GB

			// The case list: the original flat-topology kill sweep at
			// replication 3, then the correlated grid on the rack topology —
			// {rack, flap} × replication axis — at a fixed fault fraction.
			var cases []faultCase
			for _, fw := range frameworks {
				for _, frac := range fracs {
					cases = append(cases, faultCase{fw: fw, fault: "kill", repl: 3, frac: frac})
				}
			}
			for _, fw := range frameworks {
				for _, repl := range replAxis {
					cases = append(cases,
						faultCase{fw: fw, fault: "rack", repl: repl, frac: 0.45},
						faultCase{fw: fw, fault: "flap", repl: repl, frac: 0.3})
				}
			}

			// Stage 1: clean baselines. Every (topology, replication) pair
			// the grid touches needs its own clean run per framework — the
			// kill rows compare against the flat rig, the rack/flap rows
			// against the rack rig at their replication factor.
			type cleanKey struct {
				fw   Framework
				repl int
				rack bool
			}
			keySet := map[cleanKey]bool{}
			var keys []cleanKey
			for _, fc := range cases {
				k := cleanKey{fw: fc.fw, repl: fc.repl, rack: fc.fault != "kill"}
				if !keySet[k] {
					keySet[k] = true
					keys = append(keys, k)
				}
			}
			type cleanRun struct {
				res job.Result
				out []string
			}
			cleanRC := func(k cleanKey) RigConfig {
				rc := baseRC
				rc.Replication = k.repl
				if k.rack {
					rc.Racks = faultRacks
				}
				return rc
			}
			cleansList, err := sweep(len(keys), func(i int) (cleanRun, error) {
				res, _, out, err := faultRun(keys[i].fw, cleanRC(keys[i]), nominal)
				return cleanRun{res, out}, err
			})
			if err != nil {
				return nil, err
			}
			cleans := map[cleanKey]cleanRun{}
			for i, k := range keys {
				cleans[k] = cleansList[i]
			}

			// Stage 2: every case is independent.
			rows, err := sweep(len(cases), func(i int) ([]string, error) {
				fc := cases[i]
				clean := cleans[cleanKey{fw: fc.fw, repl: fc.repl, rack: fc.fault != "kill"}]
				at := fc.frac * clean.res.Elapsed
				rc := cleanRC(cleanKey{fw: fc.fw, repl: fc.repl, rack: fc.fault != "kill"})
				fault, frep, out, err := faultRun(fc.fw, rc, nominal, fc.events(clean.res.Elapsed)...)
				outCell := "ok"
				switch {
				case err != nil && fc.repl == 1:
					// Replication 1 makes the fault unsurvivable for the
					// blocks it held: a permanent, accounted failure is a
					// valid outcome — a deadlock or an unaccounted loss is not.
					if frep == nil {
						return nil, fmt.Errorf("faultsweep %s %s repl=1: no report: %w", fc.fw, fc.fault, err)
					}
					if frep.Recovery.BytesLost == 0 {
						return nil, fmt.Errorf("faultsweep %s %s repl=1 failed without reporting loss: %w", fc.fw, fc.fault, err)
					}
					outCell = "failed"
				case err != nil:
					return nil, fmt.Errorf("faultsweep %s %s repl=%d at=%.0f: %w", fc.fw, fc.fault, fc.repl, at, err)
				case !sameOutput(out, clean.out):
					outCell = "CORRUPT"
				}
				rcv := frep.Recovery
				return []string{
					fc.fw.String(), fc.fault, fmt.Sprintf("%d", fc.repl),
					fmtSecs(at), fmtSecs(clean.res.Elapsed), fmtSecs(fault.Elapsed),
					fmtPct(fault.Elapsed/clean.res.Elapsed - 1),
					fmt.Sprintf("%d", rcv.TasksRecomputed+rcv.CacheRecomputes),
					fmt.Sprintf("%d", rcv.BlocksRereplicated),
					fmt.Sprintf("%d", rcv.RepairsCancelled),
					fmt.Sprintf("%d", rcv.StaleReplicasPruned+rcv.ExcessReplicasPruned),
					fmt.Sprintf("%.0f", rcv.BytesLost/cluster.MB),
					outCell,
				}, nil
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = rows
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("kill fails node %d for good; rack fails rack %d (nodes 6-7 of the 4x2 topology) and rejoins it 40s later; flap bounces node %d twice (12s down, 30s period)",
					faultKillNode(), faultRacks-1, faultKillNode()),
				"Overhead = Fault/Clean - 1; Output compares the faulted run's records byte-for-byte against the clean run's (\"failed\" = permanent, loss-accounted failure at replication 1)",
				"Recomputed counts settled tasks re-executed for lost outputs plus Spark cached partitions recomputed after executor loss",
				"Rerepl counts block replicas the monitor restored; Cancelled counts queued repairs a rejoin obviated; Pruned counts stale+excess replicas reconciled on rejoin",
				"LostMB is data that lost every live replica at fault time (0 at replication 3; > 0 expected at replication 1)",
				"runs are deterministic: the same seeds reproduce this table bit for bit")
			return rep, nil
		},
	})
}
