package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: small job performance (128MB input, 1 task per node)",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig5", Title: "Small jobs",
				Columns: []string{"Benchmark", "Hadoop(s)", "Spark(s)", "DataMPI(s)", "DataMPI_vs_Hadoop"}}
			workloads := []struct {
				name string
				wl   microWorkload
			}{
				{"Text Sort", wlTextSort},
				{"WordCount", wlWordCount},
				{"Grep", wlGrep},
			}
			var hSum, dSum float64
			for _, w := range workloads {
				row := []string{w.name}
				var hT, dT float64
				for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
					rc := RigConfig{
						Scale: opt.scaleOr(512),
						// The paper: "The number of the concurrent
						// tasks/works is one per node."
						TasksPerNode: 1,
						Seed:         opt.seedOr(1),
						// 128MB input on a 256MB-block DFS: one split; use
						// 16MB blocks so each node still gets work.
						BlockSize: 16 * cluster.MB,
					}
					rig := NewRig(fw, rc)
					nominal := 128.0 * cluster.MB
					var spec job.Spec
					in := bdb.GenerateTextFile(rig.FS, "/small/text", bdb.LDAWiki1W(), rc.Seed, nominal)
					reducers := rig.Cluster.N()
					switch w.wl {
					case wlTextSort:
						spec = bdb.TextSortSpec(rig.FS, in, "/small/out", reducers)
					case wlWordCount:
						spec = bdb.WordCountSpec(rig.FS, in, "/small/out", reducers)
					case wlGrep:
						spec = bdb.GrepSpec(rig.FS, in, "/small/out", GrepPattern, reducers)
					}
					res := rig.Engine.Run(spec)
					if res.Err != nil {
						row = append(row, "FAIL")
						continue
					}
					row = append(row, fmtSecs(res.Elapsed))
					switch fw {
					case Hadoop:
						hT = res.Elapsed
					case DataMPI:
						dT = res.Elapsed
					}
				}
				gain := "-"
				if hT > 0 && dT > 0 {
					gain = fmtPct(1 - dT/hT)
					hSum += hT
					dSum += dT
				}
				row = append(row, gain)
				rep.Rows = append(rep.Rows, row)
			}
			if hSum > 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"measured: DataMPI averages %.0f%% faster than Hadoop across the three small jobs", (1-dSum/hSum)*100))
			}
			rep.Notes = append(rep.Notes,
				"paper: DataMPI similar to Spark, averagely 54% more efficient than Hadoop (startup/teardown dominates)")
			return rep, nil
		},
	})
}
