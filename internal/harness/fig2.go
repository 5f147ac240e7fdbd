package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
)

func init() {
	register(Experiment{
		ID:    "fig2a",
		Title: "Figure 2(a): HDFS block size tuning based on DFSIO",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig2a", Title: "DFSIO write throughput vs block size",
				Columns: []string{"Block(MB)", "5GB(MB/s)", "10GB(MB/s)", "15GB(MB/s)", "20GB(MB/s)"}}
			blockSizes := []float64{64, 128, 256, 512}
			fileSizes := []float64{5, 10, 15, 20}
			if opt.Quick {
				fileSizes = []float64{5, 20}
				rep.Columns = []string{"Block(MB)", "5GB(MB/s)", "20GB(MB/s)"}
			}
			// The paper reports the average of three executions; replica
			// placement randomness makes single runs noisy, so we do the
			// same with three seeds.
			runs := int64(3)
			for _, bs := range blockSizes {
				row := []string{fmt.Sprintf("%.0f", bs)}
				for _, gb := range fileSizes {
					total := 0.0
					for r := int64(0); r < runs; r++ {
						c := cluster.New(cluster.DefaultHardware())
						fsys := dfs.New(c, dfs.Config{
							BlockSize:        bs * cluster.MB,
							Replication:      3,
							Scale:            opt.scaleOr(8192),
							Seed:             opt.seedOr(1) + r*31,
							PerBlockOverhead: dfs.DefaultConfig().PerBlockOverhead,
						})
						res, err := dfs.RunDFSIOWrite(fsys, 8, gb*cluster.GB)
						if err != nil {
							return nil, err
						}
						total += res.ThroughputBS
					}
					row = append(row, fmt.Sprintf("%.1f", total/float64(runs)/cluster.MB))
				}
				rep.Rows = append(rep.Rows, row)
			}
			rep.Notes = append(rep.Notes,
				"average of 3 executions, as in the paper",
				"paper: throughput peaks at 256MB blocks; the cluster standardizes on 256MB + 3 replicas")
			return rep, nil
		},
	})

	register(Experiment{
		ID:    "fig2b",
		Title: "Figure 2(b): concurrent tasks/workers per node tuning based on Text Sort",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig2b", Title: "Text Sort throughput vs tasks per node",
				Columns: []string{"Tasks/node", "Hadoop(MB/s)", "Spark(MB/s)", "DataMPI(MB/s)"}}
			counts := []int{2, 4, 6}
			if opt.Quick {
				counts = []int{2, 4}
			}
			for _, tpn := range counts {
				row := []string{fmt.Sprintf("%d", tpn)}
				for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
					// 1 GB per Hadoop/DataMPI task; 128 MB per Spark worker
					// (the paper's configuration that avoids Spark OOM).
					perTask := 1.0 * cluster.GB
					if fw == Spark {
						perTask = 128 * cluster.MB
					}
					nominal := perTask * float64(tpn) * 8 // tasks/node × nodes
					rc := RigConfig{
						Scale:        opt.scaleOr(4096),
						TasksPerNode: tpn,
						Seed:         opt.seedOr(1),
					}
					rig := NewRig(fw, rc)
					in := bdb.GenerateTextFile(rig.FS, "/tune/text", bdb.LDAWiki1W(), opt.seedOr(1), nominal)
					spec := bdb.TextSortSpec(rig.FS, in, "/tune/out", tpn*rig.Cluster.N())
					res := rig.Engine.Run(spec)
					if res.Err != nil {
						row = append(row, "FAIL")
						continue
					}
					row = append(row, fmt.Sprintf("%.1f", nominal/res.Elapsed/cluster.MB))
				}
				rep.Rows = append(rep.Rows, row)
			}
			rep.Notes = append(rep.Notes,
				"paper: all three systems peak at 4 concurrent tasks/workers per node")
			return rep, nil
		},
	})
}
