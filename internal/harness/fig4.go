package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/metrics"
)

// profileRun executes one profiled micro-benchmark and returns the result
// plus the collected series.
func profileRun(fw Framework, wl microWorkload, nominalGB float64, opt Options) (job.Result, metrics.Series) {
	rc := RigConfig{
		Scale:        opt.scaleOr(4096),
		Seed:         opt.seedOr(1),
		Profile:      true,
		ProfInterval: 1.0,
	}
	res, rig := runMicro(fw, wl, nominalGB, rc)
	return res, rig.Prof.Series()
}

// fig4Report builds the profile table for one workload: the paper's
// Figure 4 rows (a-d) or (e-h), reporting window averages over the
// slowest framework's runtime, as Section 4.4 does.
func fig4Report(id, title string, wl microWorkload, gb float64, opt Options) (*Report, error) {
	rep := &Report{ID: id, Title: title,
		Columns: []string{"Framework", "JobTime(s)", "PhaseTime(s)", "AvgCPU%", "WaitIO%", "DiskRd(MB/s)", "DiskWt(MB/s)", "Net(MB/s)", "Mem(GB)"},
		Series:  map[string]metrics.Series{},
	}
	type one struct {
		fw     Framework
		res    job.Result
		series metrics.Series
	}
	var runs []one
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		res, series := profileRun(fw, wl, gb, opt)
		runs = append(runs, one{fw, res, series})
		for _, m := range []string{"cpu", "waitio", "diskread", "diskwrite", "net", "mem"} {
			rep.Series[fw.String()+"/"+m] = series
		}
	}
	// The paper averages every system over the window of the slowest
	// system's runtime (e.g. "during 0-117 seconds").
	window := 0.0
	for _, r := range runs {
		if r.res.Err == nil && r.res.Elapsed > window {
			window = r.res.Elapsed
		}
	}
	for _, r := range runs {
		if r.res.Err != nil {
			rep.Rows = append(rep.Rows, []string{r.fw.String(), resultCell(r.res), "-", "-", "-", "-", "-", "-", "-"})
			continue
		}
		w := r.series.Aggregate(window)
		phase := "-"
		for _, key := range []string{"map", "O", "stage0"} {
			if v, ok := r.res.Phases[key]; ok {
				phase = fmt.Sprintf("%s=%.0f", key, v)
				break
			}
		}
		rep.Rows = append(rep.Rows, []string{
			r.fw.String(),
			fmtSecs(r.res.Elapsed),
			phase,
			fmt.Sprintf("%.0f", w.AvgCPUPct),
			fmt.Sprintf("%.0f", w.AvgWaitIO),
			fmt.Sprintf("%.0f", w.AvgDiskRead/cluster.MB),
			fmt.Sprintf("%.0f", w.AvgDiskWrit/cluster.MB),
			fmt.Sprintf("%.0f", w.AvgNet/cluster.MB),
			fmt.Sprintf("%.1f", w.AvgMem/cluster.GB),
		})
	}
	return rep, nil
}

func init() {
	register(Experiment{
		ID:    "fig4sort",
		Title: "Figure 4(a-d): resource utilization of 8GB Text Sort (CPU, disk, network, memory)",
		Run: func(opt Options) (*Report, error) {
			rep, err := fig4Report("fig4sort", "8GB Text Sort resource profile", wlTextSort, 8, opt)
			if err != nil {
				return nil, err
			}
			rep.Notes = append(rep.Notes,
				"paper: DataMPI 69s (O phase 28s), Hadoop 117s (map 36s), Spark 114s (stage0 38s)",
				"paper avgs over 0-117s: CPU 24/38/37%, waitIO 6/12/15%, net 62/40/39 MB/s, mem 5/9/5 GB (DataMPI/Spark/Hadoop)")
			return rep, nil
		},
	})
	register(Experiment{
		ID:    "fig4wc",
		Title: "Figure 4(e-h): resource utilization of 32GB WordCount",
		Run: func(opt Options) (*Report, error) {
			rep, err := fig4Report("fig4wc", "32GB WordCount resource profile", wlWordCount, 32, opt)
			if err != nil {
				return nil, err
			}
			rep.Notes = append(rep.Notes,
				"paper: DataMPI and Spark ~130s, Hadoop 275s",
				"paper avgs over 0-275s: CPU 47/30/80%, diskRd 44/44/20 MB/s, mem 5/5/9 GB (DataMPI/Spark/Hadoop)")
			return rep, nil
		},
	})
}
